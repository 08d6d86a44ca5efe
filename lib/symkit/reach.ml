(** Symbolic invariant checking by forward reachability.

    Computes the reachable states as a BDD fixpoint and checks a safety
    property of the form "no reachable state satisfies [bad]". On
    failure, a shortest counterexample trace is extracted by walking the
    onion rings of the fixpoint backwards, exactly as SMV does.

    The image computation is the hot path of the whole Section 5
    matrix, so it is tunable along three axes (see {!tuning}):
    conjunctively partitioned transition relations with early
    quantification instead of one monolithic relprod, Coudert–Madre
    [restrict] minimization of the frontier against the reached set,
    and watermark-triggered BDD node reclamation between iterations. *)

type stats = {
  iterations : int;  (** image steps performed *)
  peak_nodes : int;  (** largest BDD (reachable set) seen *)
  reachable_states : float;  (** |reachable| if the run completed *)
}

type result =
  | Safe of stats
  | Unsafe of Model.state array * stats
  | Depth_exhausted of stats
      (** gave up at [max_iterations] without proving or refuting *)

type tuning = {
  partitioned : bool;
  use_restrict : bool;
  gc_watermark : int;
  cluster_limit : int;
}

let default_tuning =
  {
    partitioned = true;
    use_restrict = true;
    gc_watermark = 250_000;
    cluster_limit = Enc.default_cluster_limit;
  }

let monolithic_tuning =
  {
    partitioned = false;
    use_restrict = false;
    gc_watermark = 0;
    cluster_limit = Enc.default_cluster_limit;
  }

(* One-step successors: rename(exists cur (T /\ frontier)). The
   partitioned path folds the frontier through the cluster schedule,
   quantifying each current-copy variable at the last cluster that
   mentions it so the intermediate products never carry the full
   variable set. *)
let image ?(tuning = default_tuning) enc frontier =
  let m = Enc.mgr enc in
  if tuning.partitioned then begin
    let s = Enc.schedule ~cluster_limit:tuning.cluster_limit enc in
    let acc = ref (Bdd.exists m s.Enc.img_free frontier) in
    Array.iteri
      (fun i part -> acc := Bdd.and_exists m s.Enc.img_sched.(i) !acc part)
      s.Enc.parts;
    Enc.rename_nxt_to_cur enc !acc
  end
  else
    let t = Enc.trans_bdd enc in
    Enc.rename_nxt_to_cur enc (Bdd.and_exists m (Enc.cur_set enc) t frontier)

let preimage ?(tuning = default_tuning) enc set =
  let m = Enc.mgr enc in
  if tuning.partitioned then begin
    let s = Enc.schedule ~cluster_limit:tuning.cluster_limit enc in
    let acc =
      ref (Bdd.exists m s.Enc.pre_free (Enc.rename_cur_to_nxt enc set))
    in
    Array.iteri
      (fun i part -> acc := Bdd.and_exists m s.Enc.pre_sched.(i) !acc part)
      s.Enc.parts;
    !acc
  end
  else
    let t = Enc.trans_bdd enc in
    Bdd.and_exists m (Enc.nxt_set enc) t (Enc.rename_cur_to_nxt enc set)

(* Frontier minimization (Coudert–Madre): any set F' with
   frontier <= F' <= reach computes the same fixpoint ring by ring —
   the extra states are already reached, so image(F') \ reach still
   contains exactly the states at the next BFS distance. [restrict]
   picks such an F' with (usually) fewer nodes by treating
   reach /\ ~frontier as a don't-care region; a size guard keeps the
   original when simplification back-fires. *)
let minimize_frontier m ~reach frontier =
  let care = Bdd.dor m frontier (Bdd.dnot m reach) in
  let r = Bdd.restrict m frontier care in
  if Bdd.size m r < Bdd.size m frontier then r else frontier

(* Rebuild a concrete trace from the rings [r0; ...; rk] where the last
   ring intersects [bad]. *)
let extract_trace ?(tuning = default_tuning) enc rings bad_bdd =
  let m = Enc.mgr enc in
  match rings with
  | [] -> invalid_arg "Reach.extract_trace: no rings"
  | last :: earlier ->
      let s_last = Enc.decode_state enc (Bdd.dand m last bad_bdd) in
      let rec walk state acc = function
        | [] -> state :: acc
        | ring :: rest ->
            let cube = Enc.state_cube enc state in
            let pred_set = Bdd.dand m (preimage ~tuning enc cube) ring in
            let s = Enc.decode_state enc pred_set in
            walk s (state :: acc) rest
      in
      Array.of_list (walk s_last [] earlier)

(* Prebuild the relation (monolithic or partitioned) so its
   construction cost is not attributed to the first image span, and so
   the cluster diagrams are rooted (by Enc) before any sweep. *)
let prepare enc tuning =
  let m = Enc.mgr enc in
  Bdd.set_gc_watermark m tuning.gc_watermark;
  if tuning.partitioned then
    ignore (Enc.schedule ~cluster_limit:tuning.cluster_limit enc)
  else ignore (Enc.trans_bdd enc)

(* The full reachable-state set (no property): used by diagnostics such
   as the deadlock-freedom check below and by the CTL checker. On
   cancellation the set computed so far (a lower bound) is returned.
   Note for GC users: the returned diagram is not left registered as a
   root. *)
let reachable_set ?(max_iterations = max_int) ?(cancel = fun () -> false)
    ?(obs = Obs.disabled) ?(tuning = default_tuning) enc =
  let m = Enc.mgr enc in
  prepare enc tuning;
  let iterations_c = Obs.counter obs "reach.iterations" in
  let finish reach frontier =
    Bdd.deref m reach;
    Bdd.deref m frontier;
    reach
  in
  let rec loop i reach frontier =
    let cancelled = cancel () in
    if i >= max_iterations || cancelled then begin
      if cancelled then Obs.instant obs "reach.cancelled";
      finish reach frontier
    end
    else
      let fmin =
        if tuning.use_restrict then minimize_frontier m ~reach frontier
        else frontier
      in
      let img = image ~tuning enc fmin in
      let fresh = Bdd.dand m img (Bdd.dnot m reach) in
      Obs.tick iterations_c;
      if Bdd.is_zero fresh then finish reach frontier
      else begin
        let reach' = Bdd.dor m reach fresh in
        Bdd.ref m reach';
        Bdd.ref m fresh;
        Bdd.deref m reach;
        Bdd.deref m frontier;
        Bdd.maybe_gc m;
        loop (i + 1) reach' fresh
      end
  in
  let init = Enc.init_bdd enc in
  Bdd.ref m init;
  Bdd.ref m init;
  loop 0 init init

(* States with at least one successor. A relational model built from
   conjoined constraints can accidentally be partial (contradictory
   primed requirements); [deadlocked enc reach] returns the reachable
   states with no successor, which a well-formed model should make
   empty. *)
let deadlocked enc reach =
  let m = Enc.mgr enc in
  let has_succ = Bdd.exists m (Enc.nxt_set enc) (Enc.trans_bdd enc) in
  Bdd.dand m reach (Bdd.dnot m has_succ)

let check ?(max_iterations = max_int) ?(cancel = fun () -> false)
    ?(obs = Obs.disabled) ?(tuning = default_tuning) enc ~bad =
  let m = Enc.mgr enc in
  prepare enc tuning;
  let iterations_c = Obs.counter obs "reach.iterations" in
  let peak_g = Obs.gauge obs "reach.peak_nodes" in
  let frontier_g = Obs.gauge obs "reach.frontier_nodes" in
  if tuning.partitioned then
    Obs.set_max obs "reach.partitions" (Enc.n_partitions enc);
  let bad_bdd =
    Bdd.dand m (Enc.pred enc bad) (Enc.valid enc ~primed:false)
  in
  Bdd.ref m bad_bdd;
  let init = Enc.init_bdd enc in
  let peak = ref (Bdd.size m init) in
  let note d = peak := max !peak (Bdd.size m d) in
  let finish_stats iterations reachable =
    {
      iterations;
      peak_nodes = !peak;
      reachable_states =
        Bdd.sat_count m ~nvars:(2 * Enc.nbits enc) reachable
        /. (2.0 ** float_of_int (Enc.nbits enc));
      (* The state space uses only even BDD variables; each odd
         (primed) variable doubles the raw count, hence the division. *)
    }
  in
  (* Every ring and the current reached set stay registered as GC
     roots for the whole run (the rings are the counterexample
     extractor's input); [finish] unregisters them so the manager is
     left clean for the caller. *)
  let finish reach rings result =
    Bdd.deref m reach;
    List.iter (Bdd.deref m) rings;
    Bdd.deref m bad_bdd;
    result
  in
  if not (Bdd.is_zero (Bdd.dand m init bad_bdd)) then begin
    let trace = [| Enc.decode_state enc (Bdd.dand m init bad_bdd) |] in
    Bdd.deref m bad_bdd;
    Unsafe (trace, finish_stats 0 init)
  end
  else begin
    let rec loop i reach frontier rings =
      let cancelled = cancel () in
      if i >= max_iterations || cancelled then begin
        if cancelled then Obs.instant obs "reach.cancelled";
        finish reach rings (Depth_exhausted (finish_stats i reach))
      end
      else begin
        let sp = Obs.start obs "reach.image" in
        let fmin =
          if tuning.use_restrict then minimize_frontier m ~reach frontier
          else frontier
        in
        let img = image ~tuning enc fmin in
        let fresh = Bdd.dand m img (Bdd.dnot m reach) in
        Obs.tick iterations_c;
        (* [Bdd.size] is a marked walk of the new ring. Every run
           through [Engine.instrumented] passes a live track, so it is
           paid on each image step there; a disabled track skips it. *)
        if Obs.enabled obs then begin
          Obs.record frontier_g (Bdd.size m fresh);
          Obs.set_max obs "bdd.live_nodes" (Bdd.live_nodes m)
        end;
        Obs.stop sp;
        if Bdd.is_zero fresh then
          finish reach rings (Safe (finish_stats i reach))
        else begin
          let reach' = Bdd.dor m reach fresh in
          note reach';
          Obs.record peak_g !peak;
          let rings' = fresh :: rings in
          Bdd.ref m reach';
          Bdd.ref m fresh;
          Bdd.deref m reach;
          (* Safepoint: everything live — the encoder's caches and
             cluster diagrams, [bad_bdd], the new reached set and
             every ring — is rooted here. *)
          Bdd.maybe_gc m;
          if not (Bdd.is_zero (Bdd.dand m fresh bad_bdd)) then
            finish reach' rings'
              (Unsafe
                 ( Obs.with_span obs "reach.extract_trace" (fun () ->
                       extract_trace ~tuning enc rings' bad_bdd),
                   finish_stats (i + 1) reach' ))
          else loop (i + 1) reach' fresh rings'
        end
      end
    in
    Bdd.ref m init;
    Bdd.ref m init;
    loop 0 init init [ init ]
  end
