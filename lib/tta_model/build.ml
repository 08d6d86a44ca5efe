(** The formal model of Section 4: a TTP/C cluster on a star topology
    with two redundant star couplers, transliterated from the paper's
    SMV constraints into the symkit DSL.

    One transition of the model corresponds to one TDMA slot. Node ids
    and slot numbers are 1-based, as in the paper. Abstractions follow
    the paper exactly: application data is not modeled; frames on a
    channel are abstracted to their type ([none], [cold_start],
    [c_state], [bad_frame], [other]) plus the slot id they claim; clock
    synchronization is folded into the slot-per-transition abstraction.

    Documented deviations from the paper's (partially elided) text:

    - The paper lists the nondeterministic successor sets of [freeze],
      [init] and [active] but elides the clique-counter update rules
      and the active/passive checkpoint; we reconstruct them from the
      TTP/C specification as described in DESIGN.md: counters reset at
      the node's own slot, a slot counts as agreed if either channel
      carries a frame whose claimed id matches the receiver's slot
      counter, and the clique test at the checkpoint freezes the node
      only when failed frames dominate ([failed' > 0] and
      [agreed' <= failed']).
    - The paper's property excludes host-commanded freezes; we simply
      do not model them (the nondeterministic [active -> freeze] arc is
      replaced by the clique-test freeze), and we track integration
      with a latch variable so the bad predicate is a state formula.
    - A node leaving cold start for listen keeps maintaining its slot
      counter (harmless; the value is dead until re-integration). *)

open Symkit

let node_var i name = Printf.sprintf "n%d_%s" i name

let states =
  [ "freeze"; "init"; "listen"; "cold_start"; "active"; "passive";
    "await"; "test"; "download" ]

let frame_types = [ "none"; "cold_start"; "c_state"; "bad_frame"; "other" ]

(* Expression-level description of one channel: the frame type and the
   claimed sender id currently on the bus. *)
type channel_exprs = { frame : Expr.t; id : Expr.t }

(* BDD variable-order strategies for the model, compared by the bench
   harness (E15). Each is a permutation of the declared variables. *)
let var_order_strategies (cfg : Configs.t) =
  let n = cfg.Configs.nodes in
  let node_fields =
    [ "state"; "slot"; "big_bang"; "listen_timeout"; "agreed"; "failed";
      "integrated" ]
  in
  let coupler_vars =
    List.concat_map
      (fun k ->
        [ Printf.sprintf "c%d_fault" k; Printf.sprintf "c%d_buf_frame" k;
          Printf.sprintf "c%d_buf_id" k ])
      [ 0; 1 ]
  in
  let budget = match cfg.Configs.oos_budget with Some _ -> [ "oos_budget" ] | None -> [] in
  let node_major =
    List.concat_map
      (fun i -> List.map (node_var i) node_fields)
      (List.init n (fun i -> i + 1))
  in
  let field_major =
    List.concat_map
      (fun field ->
        List.map (fun i -> node_var i field) (List.init n (fun i -> i + 1)))
      node_fields
  in
  [
    ("declaration (node-major, couplers last)", node_major @ coupler_vars @ budget);
    ("couplers first", coupler_vars @ budget @ node_major);
    ("field-major (same field of all nodes adjacent)",
     field_major @ coupler_vars @ budget);
  ]

let build (cfg : Configs.t) : Model.t =
  let n = cfg.nodes in
  let node_ids = List.init n (fun i -> i + 1) in
  let open Expr in
  let open Expr.Syntax in
  (* ---------------- variable declarations ---------------- *)
  let node_vars i =
    [
      (node_var i "state", Model.Enum states);
      (node_var i "slot", Model.Range (1, n));
      (node_var i "big_bang", Model.Bool);
      (node_var i "listen_timeout", Model.Range (0, 2 * n));
      (node_var i "agreed", Model.Range (0, n));
      (node_var i "failed", Model.Range (0, n));
      (node_var i "integrated", Model.Bool);
    ]
  in
  let coupler_vars k =
    [
      (Printf.sprintf "c%d_fault" k,
       Model.Enum [ "none"; "silence"; "bad_frame"; "out_of_slot" ]);
      (Printf.sprintf "c%d_buf_frame" k, Model.Enum frame_types);
      (Printf.sprintf "c%d_buf_id" k, Model.Range (0, n));
    ]
  in
  let budget_vars =
    match cfg.oos_budget with
    | Some k -> [ ("oos_budget", Model.Range (0, k)) ]
    | None -> []
  in
  let vars =
    List.concat_map node_vars node_ids
    @ coupler_vars 0 @ coupler_vars 1 @ budget_vars
  in
  (* ---------------- shorthand accessors ---------------- *)
  let st i = cur (node_var i "state") in
  let st' i = nxt (node_var i "state") in
  let slot i = cur (node_var i "slot") in
  let slot' i = nxt (node_var i "slot") in
  let big_bang i = cur (node_var i "big_bang") in
  let big_bang' i = nxt (node_var i "big_bang") in
  let lt i = cur (node_var i "listen_timeout") in
  let lt' i = nxt (node_var i "listen_timeout") in
  let agreed i = cur (node_var i "agreed") in
  let agreed' i = nxt (node_var i "agreed") in
  let failed i = cur (node_var i "failed") in
  let failed' i = nxt (node_var i "failed") in
  let integrated i = cur (node_var i "integrated") in
  let integrated' i = nxt (node_var i "integrated") in
  let fault k = cur (Printf.sprintf "c%d_fault" k) in
  (* Coupler faults have no update rule: the fault variable is free to
     change every step, subject only to the invariants below (so a
     fault may appear, change kind, or vanish at any slot, as in the
     paper). *)
  let buf_frame k = cur (Printf.sprintf "c%d_buf_frame" k) in
  let buf_frame' k = nxt (Printf.sprintf "c%d_buf_frame" k) in
  let buf_id k = cur (Printf.sprintf "c%d_buf_id" k) in
  let buf_id' k = nxt (Printf.sprintf "c%d_buf_id" k) in
  let next_slot i = ite (slot i == int n) (int 1) (slot i + int 1) in
  (* ---------------- channel contents ---------------- *)
  (* Who is sending this slot (per the paper's frame_sent): an active
     node in its own slot sends a C-state frame; a cold-starting node
     in its own slot sends a cold-start frame. *)
  let sending_cs i = (st i == sym "active") && (slot i == int i) in
  let sending_cold i = (st i == sym "cold_start") && (slot i == int i) in
  let sending i = sending_cs i || sending_cold i in
  let collision =
    disj
      (List.concat_map
         (fun i ->
           List.filter_map
             (fun j ->
               if Stdlib.( > ) j i then Some (sending i && sending j)
               else None)
             node_ids)
         node_ids)
  in
  (* What the couplers receive from the nodes, before faults. *)
  let raw_frame =
    cases
      ((collision, sym "bad_frame")
      :: List.concat_map
           (fun i ->
             [ (sending_cold i, sym "cold_start");
               (sending_cs i, sym "c_state") ])
           node_ids)
      (sym "none")
  in
  let raw_id =
    cases
      ((collision, int 0)
      :: List.map (fun i -> (sending i, int i)) node_ids)
      (int 0)
  in
  (* What channel [k] carries after its coupler's fault mode: the
     paper's channel_frame / channel id definitions. *)
  let channel k =
    {
      frame =
        cases
          [
            (fault k == sym "silence", sym "none");
            (fault k == sym "bad_frame", sym "bad_frame");
            (fault k == sym "out_of_slot", buf_frame k);
          ]
          raw_frame;
      id =
        cases
          [
            (fault k == sym "silence", int 0);
            (fault k == sym "bad_frame", int 0);
            (fault k == sym "out_of_slot", buf_id k);
          ]
          raw_id;
    }
  in
  let ch0 = channel 0 and ch1 = channel 1 in
  let cold_on_bus =
    (ch0.frame == sym "cold_start") || (ch1.frame == sym "cold_start")
  in
  let cstate_on_bus =
    (ch0.frame == sym "c_state") || (ch1.frame == sym "c_state")
  in
  (* ---------------- per-node constraints ---------------- *)
  let node_constraints i =
    let observing e = member e [ Sym "cold_start"; Sym "active"; Sym "passive" ] in
    (* Slot judgment for the clique counters: a slot is agreed when
       either channel carries a decodable frame claiming the id this
       node expects in its current slot; it is failed when decodable
       frames are present but none matches (an incorrect frame, e.g. a
       C-state disagreeing with the receiver's). Pure noise counts as
       neither: TTP/C only judges slots in which a frame is awaited,
       so noise in a quiet slot must not erode membership — otherwise a
       single bad-frame coupler fault could freeze healthy nodes even
       with a passive hub, contradicting the paper's verified result. *)
    let decodable (ch : channel_exprs) =
      member ch.frame [ Sym "c_state"; Sym "cold_start"; Sym "other" ]
    in
    let correct_on (ch : channel_exprs) = decodable ch && (ch.id == slot i) in
    let agreed_now = correct_on ch0 || correct_on ch1 in
    let failed_now = not_ agreed_now && (decodable ch0 || decodable ch1) in
    let clamp_inc e = ite (e == int n) (int n) (e + int 1) in
    (* Integration conditions (paper 4.2.3). The No_big_bang ablation
       integrates on the first cold-start frame instead of requiring a
       previously seen one. *)
    let integrating_on_c_state = (st i == sym "listen") && cstate_on_bus in
    let integrating_on_cold_start =
      match cfg.Configs.variant with
      | Configs.No_big_bang -> (st i == sym "listen") && cold_on_bus
      | Configs.Standard | Configs.No_listen_hold | Configs.No_timeout_stagger
        ->
          (st i == sym "listen") && cold_on_bus && big_bang i
    in
    let integrating = integrating_on_c_state || integrating_on_cold_start in
    let id_on_bus =
      cases
        [
          (ch0.frame == sym "c_state", ch0.id);
          (ch1.frame == sym "c_state", ch1.id);
          (ch0.frame == sym "cold_start", ch0.id);
          (ch1.frame == sym "cold_start", ch1.id);
        ]
        (int 0)
    in
    let checkpoint = next_slot i == int i in
    let clique_ok = (failed' i == int 0) || (agreed' i > failed' i) in
    [
      (* FREEZE / INIT / diagnostic states: nondeterministic host
         decisions. *)
      (st i == sym "freeze")
      ==> member (st' i) [ Sym "freeze"; Sym "init"; Sym "await"; Sym "test" ];
      (st i == sym "init")
      ==> member (st' i) [ Sym "freeze"; Sym "init"; Sym "listen" ];
      (st i == sym "await") ==> member (st' i) [ Sym "await"; Sym "freeze" ];
      (st i == sym "test") ==> member (st' i) [ Sym "test"; Sym "freeze" ];
      (st i == sym "download")
      ==> member (st' i) [ Sym "download"; Sym "freeze" ];
      (* Big-bang flag: set while listening when a cold-start frame is
         on either channel; cleared outside listen. *)
      big_bang' i
      <=> ((st' i == sym "listen") && (st i == sym "listen")
          && (big_bang i || cold_on_bus));
      (* Listen timeout (paper 4.2.3): reset on entering listen and on
         good traffic; otherwise count down to zero. *)
      lt' i
      == cases
           [
             ( ((st i != sym "listen") && (st' i == sym "listen"))
               || member ch0.frame [ Sym "cold_start"; Sym "other" ]
               || member ch1.frame [ Sym "cold_start"; Sym "other" ],
               int
                 (match cfg.Configs.variant with
                 | Configs.No_timeout_stagger -> Stdlib.( + ) n 1
                 | Configs.Standard | Configs.No_big_bang
                 | Configs.No_listen_hold ->
                     Stdlib.( + ) i n) );
             (lt i != int 0, lt i - int 1);
           ]
           (int 0);
      (* LISTEN transitions. The No_listen_hold ablation removes the
         rule that a cold-start frame on the channel holds the node in
         listen when its timeout just expired. *)
      (st i == sym "listen")
      ==> (st' i
          == cases
               ((integrating, sym "passive")
               :: ((match cfg.Configs.variant with
                   | Configs.No_listen_hold -> []
                   | Configs.Standard | Configs.No_big_bang
                   | Configs.No_timeout_stagger ->
                       [ (cold_on_bus, sym "listen") ])
                  @ [ (lt i == int 0, sym "cold_start") ]))
               (sym "listen"));
      (* Slot adoption on integration: the frame's id plus one. *)
      ((st i == sym "listen") && integrating)
      ==> (slot' i == ite (id_on_bus == int n) (int 1) (id_on_bus + int 1));
      (* COLD START entry and slot maintenance. *)
      ((st i != sym "cold_start") && (st' i == sym "cold_start"))
      ==> (slot' i == int i);
      ((st i == sym "cold_start")
      && member (st' i) [ Sym "cold_start"; Sym "active"; Sym "listen" ])
      ==> (slot' i == next_slot i);
      (* Cold-start round check (paper 4.2.4), using the updated
         counters. *)
      (st i == sym "cold_start")
      ==> (st' i
          == cases
               [
                 (not_ checkpoint, sym "cold_start");
                 ( (agreed' i <= int 1) && (failed' i == int 0),
                   sym "cold_start" );
                 (agreed' i > failed' i, sym "active");
               ]
               (sym "listen"));
      (* ACTIVE: stays active unless the clique test at the checkpoint
         fails. Host-initiated demotion to passive is deliberately not
         modeled: together with indefinite passive lingering it lets
         the cluster starve into an all-passive silent state, after
         which a later cold-start epoch necessarily clashes with the
         stale passive timelines and freezes a healthy node with no
         coupler fault at all — a scenario outside the paper's
         single-fault analysis. *)
      (st i == sym "active")
      ==> ite
            (checkpoint && not_ clique_ok)
            (st' i == sym "freeze")
            (st' i == sym "active");
      (* PASSIVE: promotion to active is automatic at a checkpoint that
         saw correct traffic dominate (the controller's job, not a host
         choice — see the note above); frozen when failures dominate. *)
      (st i == sym "passive")
      ==> ite checkpoint
            (ite (not_ clique_ok)
               (st' i == sym "freeze")
               (ite
                  (agreed' i > failed' i)
                  (st' i == sym "active")
                  (st' i == sym "passive")))
            (st' i == sym "passive");
      (* Slot maintenance while synchronized. *)
      (member (st i) [ Sym "active"; Sym "passive" ]
      && member (st' i) [ Sym "active"; Sym "passive" ])
      ==> (slot' i == next_slot i);
      (* Clique counters: reset outside the counting states and at the
         start of the node's own round; otherwise accumulate this
         slot's judgment (clamped at the round length). *)
      agreed' i
      == cases
           [
             (not_ (observing (st i)), int 0);
             (slot i == int i, ite agreed_now (int 1) (int 0));
             (agreed_now, clamp_inc (agreed i));
           ]
           (agreed i);
      failed' i
      == cases
           [
             (not_ (observing (st i)), int 0);
             (slot i == int i, ite failed_now (int 1) (int 0));
             (failed_now, clamp_inc (failed i));
           ]
           (failed i);
      (* Integration latch for the safety property. *)
      integrated' i
      <=> (integrated i
          || member (st' i) [ Sym "active"; Sym "passive" ]);
    ]
  in
  (* ---------------- coupler constraints ---------------- *)
  let coupler_constraints k =
    let ch = channel k in
    [
      (* The buffer retains the last identified frame on the channel
         (paper 4.2.7). *)
      buf_id' k == ite (ch.id == int 0) (buf_id k) ch.id;
      buf_frame' k == ite (ch.id == int 0) (buf_frame k) ch.frame;
    ]
  in
  (* Invariants asserted at the initial state and re-asserted on the
     primed variables of every transition. *)
  let invariants =
    let feature_gate k =
      if Guardian.Feature_set.buffers_full_frames cfg.feature_set then []
      else [ fault k != sym "out_of_slot" ]
    in
    let single_fault =
      if cfg.single_fault then
        [ (fault 0 == sym "none") || (fault 1 == sym "none") ]
      else []
    in
    let no_cs_dup =
      if cfg.forbid_cold_start_duplication then
        List.map
          (fun k ->
            not_ ((fault k == sym "out_of_slot")
                 && (buf_frame k == sym "cold_start")))
          [ 0; 1 ]
      else []
    in
    (* An out-of-slot error may only be active while budget remains;
       without this invariant the state (budget = 0, fault =
       out_of_slot) would be reachable but have no successor (the
       decrement leaves the budget's domain). *)
    let budget_guard =
      match cfg.oos_budget with
      | None -> []
      | Some _ ->
          [
            ((fault 0 == sym "out_of_slot") || (fault 1 == sym "out_of_slot"))
            ==> (cur "oos_budget" > int 0);
          ]
    in
    feature_gate 0 @ feature_gate 1 @ single_fault @ no_cs_dup @ budget_guard
  in
  let budget_constraints =
    match cfg.oos_budget with
    | None -> []
    | Some _ ->
        let oos_now =
          (fault 0 == sym "out_of_slot") || (fault 1 == sym "out_of_slot")
        in
        [
          nxt "oos_budget"
          == ite oos_now (cur "oos_budget" - int 1) (cur "oos_budget");
        ]
  in
  (* ---------------- initial states ---------------- *)
  let init =
    List.concat_map
      (fun i ->
        [
          st i == sym "freeze";
          slot i == int i;
          not_ (big_bang i);
          lt i == int 0;
          agreed i == int 0;
          failed i == int 0;
          not_ (integrated i);
        ])
      node_ids
    @ List.concat_map
        (fun k ->
          [
            fault k == sym "none";
            buf_frame k == sym "none";
            buf_id k == int 0;
          ])
        [ 0; 1 ]
    @ (match cfg.oos_budget with
      | Some k -> [ cur "oos_budget" == int k ]
      | None -> [])
    @ invariants
  in
  let trans =
    List.concat_map node_constraints node_ids
    @ coupler_constraints 0 @ coupler_constraints 1
    @ budget_constraints
    @ List.map Expr.prime invariants
  in
  Model.make ~name:(Configs.name cfg) ~vars ~init ~trans

(* One model value per configuration for the life of the process, so
   every layer that asks about a configuration — the engines, the
   portfolio, the scheduler, the sessions, the router — shares it and
   its memoized fingerprint. The build runs outside the lock: two
   domains racing on a new configuration may both build, the first
   insert wins and both return it. *)
let memo : (Configs.t, Model.t) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let model cfg =
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo cfg) with
  | Some m -> m
  | None ->
      let m = build cfg in
      Mutex.protect memo_lock (fun () ->
          match Hashtbl.find_opt memo cfg with
          | Some m -> m
          | None ->
              Hashtbl.add memo cfg m;
              m)
