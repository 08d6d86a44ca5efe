(* Tests for the CDCL SAT solver: hand-written instances with known
   status, classic unsatisfiable families, assumption handling, and
   randomized cross-checking against a brute-force evaluator. *)

let lit v sign = if sign then Sat.pos v else Sat.neg v

(* Build a solver over [n] fresh variables and the given clauses, where a
   clause is a list of (var, sign). *)
let solver_of n clauses =
  let s = Sat.create () in
  for _ = 1 to n do
    ignore (Sat.new_var s)
  done;
  List.iter
    (fun c -> Sat.add_clause s (List.map (fun (v, b) -> lit v b) c))
    clauses;
  s

let check_result name expected s =
  let r = Sat.solve s in
  Alcotest.(check bool) name (expected = Sat.Sat) (r = Sat.Sat)

let test_trivial_sat () =
  check_result "x" Sat.Sat (solver_of 1 [ [ (0, true) ] ]);
  check_result "x or y" Sat.Sat (solver_of 2 [ [ (0, true); (1, true) ] ])

let test_trivial_unsat () =
  check_result "x and not x" Sat.Unsat
    (solver_of 1 [ [ (0, true) ]; [ (0, false) ] ]);
  let s = Sat.create () in
  Sat.add_clause s [];
  check_result "empty clause" Sat.Unsat s

let test_implication_chain () =
  (* x0, x0->x1, ..., x8->x9, not x9: unsat. *)
  let n = 10 in
  let clauses =
    [ [ (0, true) ]; [ (n - 1, false) ] ]
    @ List.init (n - 1) (fun i -> [ (i, false); (i + 1, true) ])
  in
  check_result "chain" Sat.Unsat (solver_of n clauses)

(* Pigeonhole: p pigeons into h holes, on p*h fresh variables of [s].
   Returns [var], where [var i j] = pigeon i sits in hole j. Unsat iff
   p > h. [guard i] is prepended to pigeon i's "sits somewhere"
   clause. *)
let add_pigeonhole ?(guard = fun _ -> []) s p h =
  let first = Sat.nvars s in
  for _ = 1 to p * h do
    ignore (Sat.new_var s)
  done;
  let var i j = first + (i * h) + j in
  for i = 0 to p - 1 do
    Sat.add_clause s (guard i @ List.init h (fun j -> Sat.pos (var i j)))
  done;
  for j = 0 to h - 1 do
    for i = 0 to p - 1 do
      for i' = i + 1 to p - 1 do
        Sat.add_clause s [ Sat.neg (var i j); Sat.neg (var i' j) ]
      done
    done
  done;
  var

let pigeonhole p h =
  let s = Sat.create () in
  let _var = add_pigeonhole s p h in
  s

let test_pigeonhole () =
  check_result "php 4 into 3" Sat.Unsat (pigeonhole 4 3);
  check_result "php 5 into 4" Sat.Unsat (pigeonhole 5 4);
  check_result "php 3 into 3" Sat.Sat (pigeonhole 3 3)

let test_model_extraction () =
  (* (x0 or x1) and (not x0 or x2) and (not x1 or x2): any model has x2
     unless both x0 x1 false, impossible; so x2 must be true. *)
  let s =
    solver_of 3
      [
        [ (0, true); (1, true) ];
        [ (0, false); (2, true) ];
        [ (1, false); (2, true) ];
      ]
  in
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "x2 true" true (Sat.model s).(2)

let test_assumptions () =
  (* x0 -> x1, x1 -> x2. Assuming x0 and not x2 is unsat; each alone is
     sat; the solver stays reusable afterwards. *)
  let s =
    solver_of 3 [ [ (0, false); (1, true) ]; [ (1, false); (2, true) ] ]
  in
  Alcotest.(check bool) "assume x0" true
    (Sat.solve ~assumptions:[ lit 0 true ] s = Sat.Sat);
  Alcotest.(check (option bool)) "x2 follows" (Some true) (Sat.value_opt s 2);
  Alcotest.(check bool) "assume x0, not x2" true
    (Sat.solve ~assumptions:[ lit 0 true; lit 2 false ] s = Sat.Unsat);
  Alcotest.(check bool) "assume not x2 alone" true
    (Sat.solve ~assumptions:[ lit 2 false ] s = Sat.Sat);
  Alcotest.(check bool) "no assumptions still sat" true
    (Sat.solve s = Sat.Sat)

let test_tautology_and_duplicates () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  (* Tautological clause must not constrain anything. *)
  Sat.add_clause s [ Sat.pos v; Sat.neg v ];
  Sat.add_clause s [ Sat.neg v; Sat.neg v ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check (option bool)) "v unconstrained but fixed by the model"
    (Some false) (Sat.value_opt s v)

let test_model_lifecycle () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  (* No query yet: no model. *)
  Alcotest.(check (option bool)) "no model before solving" None
    (Sat.value_opt s v);
  Alcotest.check_raises "model before solving raises"
    (Invalid_argument "Solver.model: no model (last answer was not Sat)")
    (fun () -> ignore (Sat.model s));
  Sat.add_clause s [ Sat.pos v ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check (option bool)) "model available" (Some true)
    (Sat.value_opt s v);
  (* Adding a clause invalidates the snapshot — the old model may not
     satisfy the new clause, so reading it silently would be the exact
     footgun [value] used to be. *)
  let w = Sat.new_var s in
  Sat.add_clause s [ Sat.neg w ];
  Alcotest.(check (option bool)) "clause addition drops the model" None
    (Sat.value_opt s v);
  (* An Unsat answer leaves no model either. *)
  Alcotest.(check bool) "unsat under assumption" true
    (Sat.solve ~assumptions:[ Sat.pos w ] s = Sat.Unsat);
  Alcotest.(check (option bool)) "no model after unsat" None
    (Sat.value_opt s v);
  Alcotest.(check (option bool)) "out-of-range var is None" None
    (Sat.value_opt s 99)

let test_activation_groups () =
  (* x0 -> x1 globally; a retractable group adds not x1. Active: only
     not x0 models. Retracted: x0/x1 free again — the group's clauses
     (and anything learned from them) are gone. *)
  let s = Sat.create () in
  let x0 = Sat.new_var s and x1 = Sat.new_var s in
  Sat.add_clause s [ Sat.neg x0; Sat.pos x1 ];
  let g = Sat.new_group s in
  Alcotest.(check bool) "fresh group is active" true (Sat.group_active g);
  Sat.add_clause_in s g [ Sat.neg x1 ];
  Alcotest.(check bool) "group clause constrains" true
    (Sat.solve ~assumptions:[ Sat.pos x0 ] s = Sat.Unsat);
  Alcotest.(check bool) "still sat without the assumption" true
    (Sat.solve s = Sat.Sat);
  Alcotest.(check (option bool)) "model respects the group" (Some false)
    (Sat.value_opt s x1);
  Sat.retract s g;
  Alcotest.(check bool) "retracted group reads inactive" false
    (Sat.group_active g);
  Alcotest.(check bool) "retracting frees the constraint" true
    (Sat.solve ~assumptions:[ Sat.pos x0 ] s = Sat.Sat);
  Alcotest.(check (option bool)) "x1 follows x0 again" (Some true)
    (Sat.value_opt s x1);
  (* Retraction is permanent: the group takes no further clauses. *)
  Alcotest.check_raises "adding into a retracted group raises"
    (Invalid_argument "Solver.add_clause_in: group already retracted")
    (fun () -> Sat.add_clause_in s g [ Sat.pos x0 ])

let test_push_pop_scopes () =
  (* Nested scopes: each pop erases exactly the clauses added since the
     matching push, while root clauses persist. *)
  let s = Sat.create () in
  let x = Sat.new_var s and y = Sat.new_var s in
  Sat.add_clause s [ Sat.pos x; Sat.pos y ];
  Sat.push s;
  Sat.add_clause s [ Sat.neg x ];
  Sat.push s;
  Sat.add_clause s [ Sat.neg y ];
  Alcotest.(check bool) "both scoped clauses bite" true
    (Sat.solve s = Sat.Unsat);
  Sat.pop s;
  Alcotest.(check bool) "inner scope gone" true (Sat.solve s = Sat.Sat);
  Alcotest.(check (option bool)) "outer scope still binds x" (Some false)
    (Sat.value_opt s x);
  Sat.pop s;
  Alcotest.(check bool) "back to the root problem" true (Sat.solve s = Sat.Sat);
  Alcotest.check_raises "pop without a scope raises"
    (Invalid_argument "Solver.pop: no open scope") (fun () -> Sat.pop s)

let test_learned_clauses_survive_queries () =
  (* The session contract: solving the same hard instance twice on one
     solver must be cheaper the second time, because learned clauses
     are retained across queries. Assumptions keep both queries
     non-trivial. *)
  let s = pigeonhole 5 4 in
  let a = [ lit (0 * 4 + 0) true ] in
  Alcotest.(check bool) "first query unsat" true
    (Sat.solve ~assumptions:a s = Sat.Unsat);
  let after_first = Sat.conflicts s in
  Alcotest.(check bool) "first query fought" true (after_first > 0);
  Alcotest.(check bool) "second query unsat" true
    (Sat.solve ~assumptions:a s = Sat.Unsat);
  let second_cost = Sat.conflicts s - after_first in
  Alcotest.(check bool)
    (Printf.sprintf "second query cheaper (%d < %d)" second_cost after_first)
    true
    (second_cost < after_first)

(* Randomized cross-check against brute force. *)

let random_cnf_gen =
  let open QCheck.Gen in
  let nv = 8 in
  let clause =
    list_size (int_range 1 4)
      (pair (int_bound (nv - 1)) bool)
  in
  pair (return nv) (list_size (int_range 1 30) clause)

let brute_force (nv, clauses) =
  let sat_env env =
    List.for_all
      (fun c -> List.exists (fun (v, b) -> env land (1 lsl v) <> 0 = b) c)
      clauses
  in
  let rec try_env k = k < 1 lsl nv && (sat_env k || try_env (k + 1)) in
  try_env 0

let prop_random_cnf =
  QCheck.Test.make ~name:"solver agrees with brute force" ~count:300
    (QCheck.make ~print:(fun _ -> "<cnf>") random_cnf_gen)
    (fun (nv, clauses) ->
      let s = solver_of nv clauses in
      let expected = brute_force (nv, clauses) in
      let got = Sat.solve s = Sat.Sat in
      if got && expected then
        (* Also check the produced model. *)
        let m = Sat.model s in
        List.for_all
          (fun c -> List.exists (fun (v, b) -> m.(v) = b) c)
          clauses
      else got = expected)

let prop_assumption_consistency =
  QCheck.Test.make ~name:"solve under assumptions = solve with units"
    ~count:200
    (QCheck.make ~print:(fun _ -> "<cnf>") random_cnf_gen)
    (fun (nv, clauses) ->
      (* Assume x0 true: must agree with adding the unit clause. *)
      let s1 = solver_of nv clauses in
      let r1 = Sat.solve ~assumptions:[ lit 0 true ] s1 in
      let s2 = solver_of nv ([ (0, true) ] :: clauses) in
      let r2 = Sat.solve s2 in
      r1 = r2)

(* ------------------------------------------------------------------ *)
(* DIMACS *)

let test_dimacs_parse () =
  let inst =
    Sat.Dimacs.of_string
      "c a comment\np cnf 3 2\n1 -2 0\nc mid comment\n3 0\n"
  in
  Alcotest.(check int) "vars" 3 inst.Sat.Dimacs.nvars;
  Alcotest.(check (list (list int))) "clauses" [ [ 1; -2 ]; [ 3 ] ]
    inst.Sat.Dimacs.clauses

let test_dimacs_parse_errors () =
  let expect_error s =
    match Sat.Dimacs.of_string s with
    | exception Sat.Dimacs.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected a parse error on %S" s
  in
  expect_error "1 2 0\n";
  expect_error "p cnf 2 1\n1 3 0\n";
  expect_error "p cnf 2 2\n1 0\n";
  expect_error "p cnf 2 1\n1 2\n"

let test_dimacs_solve () =
  let inst = Sat.Dimacs.of_string "p cnf 3 3\n1 2 0\n-1 3 0\n-2 3 0\n" in
  let s = Sat.Dimacs.load inst in
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  let model = Sat.Dimacs.model_of inst s in
  (* The model satisfies every clause. *)
  List.iter
    (fun clause ->
      Alcotest.(check bool) "clause satisfied" true
        (List.exists (fun l -> List.mem l model) clause))
    inst.Sat.Dimacs.clauses

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs print/parse roundtrip" ~count:100
    (QCheck.make ~print:(fun _ -> "<cnf>") random_cnf_gen)
    (fun (nv, clauses) ->
      let clauses =
        (* Dedup literals within clauses so the comparison is stable,
           and use the DIMACS convention. *)
        List.map
          (fun c ->
            List.sort_uniq compare
              (List.map (fun (v, b) -> if b then v + 1 else -(v + 1)) c))
          clauses
      in
      let inst = { Sat.Dimacs.nvars = nv; clauses } in
      Sat.Dimacs.of_string (Sat.Dimacs.to_string inst) = inst)

let prop_dimacs_load_agrees =
  QCheck.Test.make ~name:"dimacs load agrees with direct construction"
    ~count:100
    (QCheck.make ~print:(fun _ -> "<cnf>") random_cnf_gen)
    (fun (nv, clauses) ->
      let direct = Sat.solve (solver_of nv clauses) = Sat.Sat in
      let inst =
        {
          Sat.Dimacs.nvars = nv;
          clauses =
            List.map
              (List.map (fun (v, b) -> if b then v + 1 else -(v + 1)))
              clauses;
        }
      in
      let via_dimacs = Sat.solve (Sat.Dimacs.load inst) = Sat.Sat in
      direct = via_dimacs)

(* Pigeonhole 8 into 7 with pigeon [i]'s "sits somewhere" clause
   guarded by selector variable [i], so assumptions choose which
   pigeons take part: all eight is unsat, any seven is sat. *)
let guarded_pigeonhole () =
  let s = Sat.create () in
  for _ = 1 to 8 do
    ignore (Sat.new_var s)
  done;
  let var = add_pigeonhole ~guard:(fun i -> [ Sat.neg i ]) s 8 7 in
  (s, var)

(* Clause-database reduction must not change answers: one incremental
   solver fights the unsat instance long enough to delete learned
   clauses, and every query, sat or unsat, agrees with a fresh solver. *)
let test_incremental_with_reduction () =
  let s, var = guarded_pigeonhole () in
  for trial = 0 to 7 do
    (* Even trials seat every pigeon (unsat); odd ones leave pigeon
       [trial / 2] out (sat). Each trial also bars one placement. *)
    let assumptions =
      Sat.neg (var (trial mod 8) (trial mod 7))
      :: List.filter_map
           (fun i ->
             if trial land 1 = 1 && i = trial / 2 then None
             else Some (Sat.pos i))
           (List.init 8 Fun.id)
    in
    let fresh, _ = guarded_pigeonhole () in
    let expected = Sat.solve ~assumptions fresh in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d agrees" trial)
      (expected = Sat.Sat)
      (Sat.solve ~assumptions s = Sat.Sat);
    Alcotest.(check bool)
      (Printf.sprintf "trial %d answer" trial)
      (trial land 1 = 1) (expected = Sat.Sat)
  done;
  let deleted = List.assoc "sat.deleted" (Sat.counters s) in
  Alcotest.(check bool)
    (Printf.sprintf "reduction ran (%d clauses deleted)" deleted)
    true (deleted > 0)

(* Search-identity pin: the exact effort of one classic unsat instance.
   A change to the solver's data structures that is meant to be a pure
   speed change must leave every one of these numbers as it is. *)
let test_search_pin () =
  let s = pigeonhole 8 7 in
  Alcotest.(check bool) "php 8 into 7 unsat" true (Sat.solve s = Sat.Unsat);
  Alcotest.(check (list (pair string int)))
    "php 8 into 7 counters"
    [
      ("sat.clauses", 3049);
      ("sat.conflicts", 5562);
      ("sat.decisions", 6704);
      ("sat.deleted", 2713);
      ("sat.learned", 5561);
      ("sat.propagations", 82078);
      ("sat.restarts", 60);
      ("sat.vars", 56);
    ]
    (Sat.counters s)

(* Allocation guard: conflict analysis must not allocate per variable.
   100 000 idle variables sit beside a small unsat instance; a solver
   that allocated a [nvars]-sized array per conflict would put about
   100 000 major-heap words on every conflict. *)
let test_conflicts_allocate_nothing_per_var () =
  let s = Sat.create () in
  for _ = 1 to 100_000 do
    ignore (Sat.new_var s)
  done;
  let _var = add_pigeonhole s 7 6 in
  let _, _, major0 = Gc.counters () in
  Alcotest.(check bool) "php 7 into 6 unsat" true (Sat.solve s = Sat.Unsat);
  let _, _, major1 = Gc.counters () in
  let conflicts = Sat.conflicts s in
  let per_conflict = (major1 -. major0) /. float_of_int conflicts in
  Alcotest.(check bool) "search hit conflicts" true (conflicts > 100);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words per conflict" per_conflict)
    true (per_conflict < 1000.0)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_cnf;
      prop_assumption_consistency;
      prop_dimacs_roundtrip;
      prop_dimacs_load_agrees;
    ]

let suite =
  [
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "implication chain" `Quick test_implication_chain;
    Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
    Alcotest.test_case "model extraction" `Quick test_model_extraction;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "model lifecycle" `Quick test_model_lifecycle;
    Alcotest.test_case "activation groups" `Quick test_activation_groups;
    Alcotest.test_case "push/pop scopes" `Quick test_push_pop_scopes;
    Alcotest.test_case "learned clauses survive queries" `Quick
      test_learned_clauses_survive_queries;
    Alcotest.test_case "tautologies and duplicates" `Quick
      test_tautology_and_duplicates;
    Alcotest.test_case "dimacs parse" `Quick test_dimacs_parse;
    Alcotest.test_case "dimacs parse errors" `Quick test_dimacs_parse_errors;
    Alcotest.test_case "dimacs solve" `Quick test_dimacs_solve;
    Alcotest.test_case "incremental with clause reduction" `Quick
      test_incremental_with_reduction;
    Alcotest.test_case "search pin: php 8 into 7" `Quick test_search_pin;
    Alcotest.test_case "conflicts allocate nothing per variable" `Quick
      test_conflicts_allocate_nothing_per_var;
  ]
  @ qtests

let () = Alcotest.run "sat" [ ("sat", suite) ]
