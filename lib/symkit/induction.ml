(* One-step induction of a supplied invariant, on two {!Bmc} sessions.

   The obligations are discharged cheapest first: initiation and safety
   are single-state queries, while consecution needs one unrolled
   transition, by far the costliest query on the TTA models (at 3
   nodes, under 0.3 s to refute safety on an unsafe configuration's
   fixpoint, about 20 s to prove consecution on a safe one's). *)

type obligation = Initiation | Safety | Consecution
type result = Inductive | Fails of obligation

let result_to_string = function
  | Inductive -> "inductive"
  | Fails Initiation -> "fails initiation"
  | Fails Safety -> "fails safety"
  | Fails Consecution -> "fails consecution"

(* An obligation holds iff no state satisfies the session's constraints
   together with the assumptions. *)
let unsat s assumptions = Bmc.solve_assuming s assumptions = Sat.Unsat

let check enc ~inv ~bad =
  let init = Bmc.create enc in
  if not (unsat init [ Sat.negate (Bmc.pred_lit init ~step:0 inv) ]) then
    Fails Initiation
  else begin
    let step = Bmc.create ~with_init:false enc in
    Bmc.assert_pred step ~step:0 inv;
    if not (unsat step [ Bmc.pred_lit step ~step:0 (Enc.pred enc bad) ]) then
      Fails Safety
    else begin
      Bmc.extend step;
      if unsat step [ Sat.negate (Bmc.pred_lit step ~step:1 inv) ] then
        Inductive
      else Fails Consecution
    end
  end
