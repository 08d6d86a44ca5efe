(* One-step induction of a supplied invariant, on two {!Bmc} sessions.

   The obligations are discharged cheapest first: initiation and safety
   are single-state queries, while consecution needs one unrolled
   transition, by far the costliest query on the TTA models (at 3
   nodes, under 0.3 s to refute safety on an unsafe configuration's
   fixpoint, about 12 s to prove consecution on a safe one's). Each
   runs in its own span, which covers everything it costs: the session
   it builds or extends, the CNF of its predicates, and the solve. *)

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

let check ?(obs = Obs.disabled) enc ~inv ~bad =
  let initiation () =
    let init = Bmc.create enc in
    unsat init [ Sat.negate (Bmc.pred_lit init ~step:0 inv) ]
  in
  if not (Obs.with_span obs "induction.initiation" initiation) then
    Fails Initiation
  else begin
    let safety () =
      let step = Bmc.create ~with_init:false enc in
      Bmc.assert_pred step ~step:0 inv;
      (step, unsat step [ Bmc.pred_lit step ~step:0 (Enc.pred enc bad) ])
    in
    let step, safe = Obs.with_span obs "induction.safety" safety in
    if not safe then Fails Safety
    else
      let consecution () =
        Bmc.extend step;
        unsat step [ Sat.negate (Bmc.pred_lit step ~step:1 inv) ]
      in
      if Obs.with_span obs "induction.consecution" consecution then Inductive
      else Fails Consecution
  end
