(** SAT-based bounded model checking.

    The transition constraints are first compiled to BDDs over the
    encoder's bit space (reusing the verified symbolic compiler), then
    each BDD is translated to CNF with one Tseitin variable per BDD node,
    instantiated per unrolling step. The bad-state predicate at depth [k]
    is asserted as an assumption, so a single incremental solver instance
    serves every depth. *)

type result =
  | Counterexample of Model.state array
  | No_counterexample of int option
      (** no violation up to (and at) this depth; [None] when cancelled
          before depth 0 completed (a vacuous claim) *)

(* Per-property session memo: the compiled predicate, the highest depth
   verified clean, and the shortest counterexample found (if any). A
   warm session answers repeat queries against this memo and resumes
   solving only past [clean]. *)
type prop = {
  prop_bdd : Bdd.t;
  mutable clean : int;  (** depths [0..clean] hold; -1 initially *)
  mutable cex : (int * Model.state array) option;
      (** shortest violating depth + trace *)
}

(* Tseitin memo key: a BDD node id and a base step packed into one int,
   the step above bit 40. The hash mixes the step into the low bits,
   which the table indexes by, so one node's literals at successive
   steps land in different buckets. *)
module Node_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k lxor ((k lsr 40) * 0x9E3779B1)) land max_int
end)

let node_key id step = (step lsl 40) lor id

type t = {
  enc : Enc.t;
  solver : Sat.t;
  true_lit : Sat.lit;
  (* step -> state bit -> SAT variable *)
  mutable step_bits : int array list;  (** reversed: step k at head *)
  mutable depth : int;
  (* Tseitin memo: node_key (bdd id) (base step) -> lit *)
  node_lit : Sat.lit Node_tbl.t;
  init_parts : Bdd.t list;
  trans_parts : Bdd.t list;
  valid_cur : Bdd.t;
  (* Property memo, keyed by the printed expression. *)
  props : (string, prop) Hashtbl.t;
}

let bits_at t step =
  List.nth t.step_bits (t.depth - step)

let new_step_bits t =
  let n = Enc.nbits t.enc in
  Array.init n (fun _ -> Sat.new_var t.solver)

(* Translate a BDD over encoder bit space into CNF, where current bits
   refer to step [step] and primed bits to step [step + 1]. Returns a
   literal equivalent to the BDD's function. *)
let rec lit_of_bdd t ~step d =
  if Bdd.is_one d then t.true_lit
  else if Bdd.is_zero d then Sat.negate t.true_lit
  else
    let key = node_key (Bdd.id d) step in
    match Node_tbl.find_opt t.node_lit key with
    | Some l -> l
    | None ->
        let m = Enc.mgr t.enc in
        let bit, primed = Enc.bit_of_bddvar (Bdd.top_var m d) in
        let bit_var =
          (bits_at t (if primed then step + 1 else step)).(bit)
        in
        let v = Sat.pos bit_var in
        let lo = lit_of_bdd t ~step (Bdd.low m d) in
        let hi = lit_of_bdd t ~step (Bdd.high m d) in
        let n = Sat.pos (Sat.new_var t.solver) in
        (* n <-> (v ? hi : lo) *)
        Sat.add_clause t.solver [ Sat.negate n; Sat.negate v; hi ];
        Sat.add_clause t.solver [ Sat.negate n; v; lo ];
        Sat.add_clause t.solver [ n; Sat.negate v; Sat.negate hi ];
        Sat.add_clause t.solver [ n; v; Sat.negate lo ];
        Node_tbl.add t.node_lit key n;
        n

let assert_bdd t ~step d = Sat.add_clause t.solver [ lit_of_bdd t ~step d ]

(* [with_init:false] omits the initial-state constraints at step 0,
   which is what {!Induction}'s safety and consecution queries need: a
   run starting in any valid state. *)
let create ?(with_init = true) enc =
  let solver = Sat.create () in
  let tv = Sat.new_var solver in
  Sat.add_clause solver [ Sat.pos tv ];
  let t =
    {
      enc;
      solver;
      true_lit = Sat.pos tv;
      step_bits = [];
      depth = 0;
      node_lit = Node_tbl.create 4096;
      init_parts =
        List.map (Enc.pred enc) (Enc.model enc).Model.init;
      trans_parts = Enc.trans_parts enc;
      valid_cur = Enc.valid enc ~primed:false;
      props = Hashtbl.create 8;
    }
  in
  t.step_bits <- [ new_step_bits t ];
  assert_bdd t ~step:0 t.valid_cur;
  if with_init then List.iter (assert_bdd t ~step:0) t.init_parts;
  t

(* Extend the unrolling by one step: fresh bits for step [depth+1], the
   transition constraints between [depth] and [depth+1], and the domain
   validity of the new step. *)
let extend t =
  let new_bits = new_step_bits t in
  let from_step = t.depth in
  t.step_bits <- new_bits :: t.step_bits;
  t.depth <- t.depth + 1;
  List.iter (assert_bdd t ~step:from_step) t.trans_parts;
  assert_bdd t ~step:t.depth t.valid_cur

let decode t ~upto =
  let n = Enc.nbits t.enc in
  let model_enc = t.enc in
  (* One explicit model snapshot for the whole trace — no silently
     defaulting reads of unfixed variables. *)
  let m = Sat.model t.solver in
  let states =
    Array.init (upto + 1) (fun step ->
        let bits = bits_at t step in
        let raw = Array.init n (fun b -> m.(bits.(b))) in
        (* Rebuild each variable's value from its bits. *)
        let mdl = Enc.model model_enc in
        let s = Array.make (List.length mdl.Model.vars) (Expr.Bool false) in
        List.iteri
          (fun vi (name, _) ->
            let ve = Enc.var_enc model_enc name in
            let idx = ref 0 in
            for j = ve.Enc.nbits - 1 downto 0 do
              idx := (!idx * 2) + if raw.(ve.Enc.first_bit + j) then 1 else 0
            done;
            s.(vi) <- ve.Enc.values.(!idx))
          mdl.Model.vars;
        s)
  in
  states

(* Check whether a bad state is reachable in exactly [step] steps
   ([step] <= current depth; the unrolling constrains every transition,
   so the decoded prefix 0..step is a valid run ending in a bad
   state). *)
let check_at_depth t ~step ~bad_bdd =
  let bad_lit = lit_of_bdd t ~step bad_bdd in
  match Sat.solve ~assumptions:[ bad_lit ] t.solver with
  | Sat.Sat -> Some (decode t ~upto:step)
  | Sat.Unsat -> None

let check_at_current_depth t ~bad_bdd = check_at_depth t ~step:t.depth ~bad_bdd

let ensure_depth t d =
  while t.depth < d do
    extend t
  done

(* Flush the solver's effort counters into an observability track at
   the end of a run. *)
let flush_counters t obs =
  if Obs.enabled obs then
    List.iter (fun (name, v) -> Obs.incr_by obs name v) (Sat.counters t.solver)

let prop_of t ~bad =
  let key = Expr.to_string bad in
  match Hashtbl.find_opt t.props key with
  | Some p -> p
  | None ->
      let p = { prop_bdd = Enc.pred t.enc bad; clean = -1; cex = None } in
      Hashtbl.add t.props key p;
      p

(* Pure memo lookup — never creates the property entry, so peeking at
   a session's progress costs nothing. *)
let clean_depth t ~bad =
  match Hashtbl.find_opt t.props (Expr.to_string bad) with
  | Some p -> p.clean
  | None -> -1

(* Run a (possibly warm) session against a property up to [max_depth].
   Depths already verified clean in earlier queries are answered from
   the memo; only the frontier past [clean] is actually solved, with
   every learned clause of the previous queries still in the solver. *)
let check_session ?(max_depth = 30) ?(cancel = fun () -> false)
    ?(obs = Obs.disabled) t ~bad =
  let p = prop_of t ~bad in
  match p.cex with
  | Some (d, trace) when d <= max_depth -> Counterexample trace
  | _ ->
      if p.clean >= max_depth then No_counterexample (Some max_depth)
      else begin
        let depth_g = Obs.gauge obs "bmc.depth" in
        let rec go step =
          if step > max_depth then No_counterexample (Some max_depth)
          else if cancel () then begin
            (* Polled once per depth: when cancelled, every depth up to
               [clean] has been checked, so the bounded claim is honest
               (and vacuous — [None] — when depth 0 never finished). *)
            Obs.instant obs "bmc.cancelled";
            No_counterexample (if p.clean < 0 then None else Some p.clean)
          end
          else begin
            Obs.record depth_g step;
            if t.depth < step then
              Obs.with_span obs "bmc.unroll" (fun () -> ensure_depth t step);
            let sp = Obs.start obs "bmc.solve_depth" in
            let r = check_at_depth t ~step ~bad_bdd:p.prop_bdd in
            Obs.stop sp;
            match r with
            | Some trace ->
                p.cex <- Some (step, trace);
                Counterexample trace
            | None ->
                p.clean <- step;
                go (step + 1)
          end
        in
        go (p.clean + 1)
      end

let check ?max_depth ?cancel ?obs enc ~bad =
  let t = create enc in
  let result = check_session ?max_depth ?cancel ?obs t ~bad in
  (match obs with Some obs -> flush_counters t obs | None -> ());
  result

(* Block one whole trace: at least one state bit of one step must
   differ. *)
let block_trace t trace =
  let clause = ref [] in
  Array.iteri
    (fun step state ->
      let bits = bits_at t step in
      let mdl = Enc.model t.enc in
      List.iteri
        (fun vi (name, _) ->
          let ve = Enc.var_enc t.enc name in
          let idx =
            let rec find i =
              if Expr.value_equal ve.Enc.values.(i) state.(vi) then i
              else find (i + 1)
            in
            find 0
          in
          for j = 0 to ve.Enc.nbits - 1 do
            let v = bits.(ve.Enc.first_bit + j) in
            let lit =
              if (idx lsr j) land 1 = 1 then Sat.neg v else Sat.pos v
            in
            clause := lit :: !clause
          done)
        mdl.Model.vars)
    trace;
  Sat.add_clause t.solver !clause

(* Enumerate distinct counterexamples at the shortest violating depth:
   find the minimal depth as {!check} does, then repeatedly block the
   trace just found and re-solve until the depth is exhausted or
   [limit] traces have been produced. *)
let enumerate ?(max_depth = 30) ?(limit = 16) enc ~bad =
  let t = create enc in
  let bad_bdd = Enc.pred enc bad in
  let rec find_depth () =
    match check_at_current_depth t ~bad_bdd with
    | Some trace -> Some trace
    | None ->
        if t.depth >= max_depth then None
        else begin
          extend t;
          find_depth ()
        end
  in
  match find_depth () with
  | None -> []
  | Some first ->
      let rec collect acc n =
        if n >= limit then List.rev acc
        else begin
          block_trace t (List.hd acc);
          match check_at_current_depth t ~bad_bdd with
          | Some trace -> collect (trace :: acc) (n + 1)
          | None -> List.rev acc
        end
      in
      collect [ first ] 1

let counters t = Sat.counters t.solver
let conflicts t = Sat.conflicts t.solver

(* Lower-level access for {!Induction}: assert predicates, build
   assumption literals and solve under them in the session's solver,
   without handing out the solver itself. *)
let depth t = t.depth
let assert_pred t ~step d = assert_bdd t ~step d
let pred_lit t ~step d = lit_of_bdd t ~step d
let solve_assuming t assumptions = Sat.solve ~assumptions t.solver
