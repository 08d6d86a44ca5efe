type lit = int

let pos v = v * 2
let neg v = (v * 2) + 1
let negate l = l lxor 1
let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0

type result = Sat | Unsat

(* Growable int vector. A fresh one holds no storage: the solver keeps
   two watch lists per variable, most of them short and many never
   used. *)
module Veci = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (max 4 (2 * v.len)) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let len v = v.len
  let shrink v n = v.len <- n
  let to_array v = Array.sub v.data 0 v.len
end

(* Max-heap over variables ordered by activity, with position index for
   O(log n) increase-key. Every operation takes the activity array
   itself, so comparisons are unboxed float reads and no closure is
   built per call. *)
module Heap = struct
  type t = {
    mutable heap : int array;
    mutable size : int;
    mutable pos : int array; (* var -> index in heap, or -1 *)
  }

  let create () = { heap = Array.make 16 0; size = 0; pos = Array.make 16 (-1) }

  let ensure_var h v =
    if v >= Array.length h.pos then begin
      let n = max (2 * Array.length h.pos) (v + 1) in
      let pos = Array.make n (-1) in
      Array.blit h.pos 0 pos 0 (Array.length h.pos);
      h.pos <- pos
    end

  let mem h v = v < Array.length h.pos && h.pos.(v) >= 0

  let swap h i j =
    let a = h.heap.(i) and b = h.heap.(j) in
    h.heap.(i) <- b;
    h.heap.(j) <- a;
    h.pos.(b) <- i;
    h.pos.(a) <- j

  let rec up (act : float array) h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if act.(h.heap.(i)) > act.(h.heap.(p)) then begin
        swap h i p;
        up act h p
      end
    end

  let rec down (act : float array) h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < h.size && act.(h.heap.(l)) > act.(h.heap.(!best)) then best := l;
    if r < h.size && act.(h.heap.(r)) > act.(h.heap.(!best)) then best := r;
    if !best <> i then begin
      swap h i !best;
      down act h !best
    end

  let insert act h v =
    ensure_var h v;
    if not (mem h v) then begin
      if h.size = Array.length h.heap then begin
        let heap = Array.make (2 * h.size) 0 in
        Array.blit h.heap 0 heap 0 h.size;
        h.heap <- heap
      end;
      h.heap.(h.size) <- v;
      h.pos.(v) <- h.size;
      h.size <- h.size + 1;
      up act h h.pos.(v)
    end

  let bump act h v = if mem h v then up act h h.pos.(v)

  (* The most active variable, or -1 when the heap is empty. *)
  let pop act h =
    if h.size = 0 then -1
    else begin
      let v = h.heap.(0) in
      h.size <- h.size - 1;
      h.pos.(v) <- -1;
      if h.size > 0 then begin
        let last = h.heap.(h.size) in
        h.heap.(0) <- last;
        h.pos.(last) <- 0;
        down act h 0
      end;
      v
    end
end

(* A retractable activation group: every clause added to the group
   carries the negated selector literal, and [solve] assumes the
   selector true while the group is active. Retraction asserts the
   selector false at the root, permanently satisfying (= erasing) the
   group's clauses and every learned clause derived from them. *)
type group = { sel : int; mutable active : bool }

(* The clause arena. Every clause lives in one flat [int array]: a
   header word followed by its literals. A clause is referred to by the
   offset of its first literal (its reference, kept in watch lists and
   in [reason]); the header sits just before it. The header packs the
   size (low bits) with the literal-block distance (LBD, the number of
   distinct decision levels at learn time; 0 for original clauses,
   which are never deleted), and [reduce_db] marks the clauses it
   drops in it before compacting them away. *)
let size_bits = 31
let size_mask = (1 lsl size_bits) - 1
let lbd_mask = (1 lsl 30) - 1
let deleted_mark = 1 lsl 61
let header ~size ~lbd = size lor (lbd lsl size_bits)
let header_lbd h = (h lsr size_bits) land lbd_mask

type t = {
  mutable nvars : int;
  mutable vals : int array; (* lit -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array; (* var -> clause reference or -1 *)
  mutable phase : bool array;
  mutable activity : float array;
  mutable arena : int array;
  mutable arena_len : int; (* words of [arena] in use *)
  mutable nclauses : int;
  mutable watches : Veci.t array; (* lit -> clause references *)
  (* Conflict-analysis scratch, reused by every conflict: [seen] marks
     variables (all false between conflicts), [marked] lists the ones
     set so they can be cleared, [lower] collects the learned literals
     below the conflict level, [learnt] receives the learned clause
     (asserting literal first), and [level_stamp] holds, per decision
     level, the last conflict whose LBD counted it. *)
  mutable seen : bool array;
  marked : Veci.t;
  lower : Veci.t;
  learnt : Veci.t;
  mutable level_stamp : int array;
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable qhead : int;
  order : Heap.t;
  mutable var_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable propagations : int;
  mutable decisions : int;
  mutable restarts : int;
  mutable learned : int;
  mutable deleted : int;
  mutable reduce_at : int; (* conflict count triggering the next DB reduction *)
  mutable groups : group list; (* active groups, newest first *)
  mutable scopes : group list; (* push/pop stack (a subset of [groups]) *)
  mutable last_model : bool array option; (* assignment snapshot of the last Sat answer *)
}

let create () =
  {
    nvars = 0;
    vals = Array.make 32 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    phase = Array.make 16 false;
    activity = Array.make 16 0.0;
    arena = Array.make 256 0;
    arena_len = 0;
    nclauses = 0;
    watches = Array.init 32 (fun _ -> Veci.create ());
    seen = Array.make 16 false;
    marked = Veci.create ();
    lower = Veci.create ();
    learnt = Veci.create ();
    level_stamp = Array.make 16 0;
    trail = Veci.create ();
    trail_lim = Veci.create ();
    qhead = 0;
    order = Heap.create ();
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
    propagations = 0;
    decisions = 0;
    restarts = 0;
    learned = 0;
    deleted = 0;
    reduce_at = 2000;
    groups = [];
    scopes = [];
    last_model = None;
  }

let nvars s = s.nvars

let grow_arrays s n =
  let g a def =
    let b = Array.make n def in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  s.level <- g s.level 0;
  s.reason <- g s.reason (-1);
  s.phase <- g s.phase false;
  s.activity <- g s.activity 0.0;
  s.seen <- g s.seen false;
  let vals = Array.make (2 * n) (-1) in
  Array.blit s.vals 0 vals 0 (Array.length s.vals);
  s.vals <- vals;
  let w = Array.init (2 * n) (fun _ -> Veci.create ()) in
  Array.blit s.watches 0 w 0 (Array.length s.watches);
  s.watches <- w

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  if v >= Array.length s.level then grow_arrays s (2 * (v + 1));
  Heap.insert s.activity s.order v;
  v

let value_lit s l = s.vals.(l)
let decision_level s = Veci.len s.trail_lim

let enqueue s l reason =
  let v = lit_var l in
  s.vals.(l) <- 1;
  s.vals.(negate l) <- 0;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- lit_sign l;
  Veci.push s.trail l

(* Backtracking is defined before clause addition so the latter can
   reset to level 0: clauses must be installed at the root, or a unit
   enqueued at a stale decision level would be silently unassigned —
   and lost — by the next solve's restart. *)
let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Veci.get s.trail_lim lvl in
    for i = Veci.len s.trail - 1 downto bound do
      let l = Veci.get s.trail i in
      let v = lit_var l in
      s.vals.(l) <- -1;
      s.vals.(negate l) <- -1;
      s.reason.(v) <- -1;
      Heap.insert s.activity s.order v
    done;
    Veci.shrink s.trail bound;
    Veci.shrink s.trail_lim lvl;
    s.qhead <- Veci.len s.trail
  end

(* Append a clause of [size] literals, copied from [src], to the arena
   and watch its first two literals; returns its reference. *)
let push_clause s src size ~lbd =
  let need = s.arena_len + 1 + size in
  if need > Array.length s.arena then begin
    let cap = Array.length s.arena in
    let a = Array.make (max need (2 * cap)) 0 in
    Array.blit s.arena 0 a 0 s.arena_len;
    s.arena <- a
  end;
  let r = s.arena_len + 1 in
  s.arena.(r - 1) <- header ~size ~lbd;
  Array.blit src 0 s.arena r size;
  s.arena_len <- need;
  s.nclauses <- s.nclauses + 1;
  Veci.push s.watches.(negate src.(0)) r;
  Veci.push s.watches.(negate src.(1)) r;
  r

let add_clause_array s lits =
  cancel_until s 0;
  s.last_model <- None;
  if s.ok then begin
    let n = Array.length lits in
    if n = 0 then s.ok <- false
    else if n = 1 then begin
      match value_lit s lits.(0) with
      | 1 -> ()
      | 0 -> s.ok <- false
      | _ -> enqueue s lits.(0) (-1)
    end
    else ignore (push_clause s lits n ~lbd:0)
  end

(* Root-level clause addition: normalize (dedupe, drop tautologies and
   level-0-false literals, detect clauses already satisfied at level 0)
   and install. Ignores the push/pop scope stack — retraction units and
   group clauses route here directly. Sorted, a literal and its
   negation are neighbours, and after [cancel_until s 0] every assigned
   literal is a level-0 one. *)
let add_clause_root s lits =
  cancel_until s 0;
  let lits = List.sort_uniq Int.compare lits in
  let rec taut = function
    | a :: (b :: _ as rest) -> b = negate a || taut rest
    | _ -> false
  in
  if not (taut lits || List.exists (fun l -> value_lit s l = 1) lits) then
    add_clause_array s
      (Array.of_list (List.filter (fun l -> value_lit s l <> 0) lits))

let add_clause s lits =
  match s.scopes with
  | [] -> add_clause_root s lits
  | g :: _ -> add_clause_root s (neg g.sel :: lits)

(* Activation groups. *)

let new_group s =
  let g = { sel = new_var s; active = true } in
  s.groups <- g :: s.groups;
  g

let group_active g = g.active

let add_clause_in s g lits =
  if not g.active then
    invalid_arg "Solver.add_clause_in: group already retracted";
  add_clause_root s (neg g.sel :: lits)

let retract s g =
  if g.active then begin
    g.active <- false;
    s.groups <- List.filter (fun g' -> g' != g) s.groups;
    add_clause_root s [ neg g.sel ]
  end

let push s = s.scopes <- new_group s :: s.scopes

let pop s =
  match s.scopes with
  | [] -> invalid_arg "Solver.pop: no open scope"
  | g :: rest ->
      s.scopes <- rest;
      retract s g

(* Unit propagation with two watched literals. Returns the reference
   of a conflicting clause, or -1. Nothing in here adds a clause or a
   variable, so the arena, the value array and the watch list being
   scanned (a moved watch always goes to another literal's list) stay
   the same arrays throughout. *)
let propagate s =
  let conflict = ref (-1) in
  let a = s.arena and vals = s.vals in
  while !conflict < 0 && s.qhead < Veci.len s.trail do
    let l = Veci.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = negate l in
    let ws = s.watches.(l) in
    let refs = ws.Veci.data in
    let n = Veci.len ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let r = refs.(!i) in
      incr i;
      (* Ensure the false literal is at position 1. *)
      if a.(r) = false_lit then begin
        a.(r) <- a.(r + 1);
        a.(r + 1) <- false_lit
      end;
      let first = a.(r) in
      if vals.(first) = 1 then begin
        (* Clause satisfied: keep the watch. *)
        refs.(!j) <- r;
        incr j
      end
      else begin
        (* Look for a new literal to watch. *)
        let stop = r + (a.(r - 1) land size_mask) in
        let k = ref (r + 2) in
        while !k < stop && vals.(a.(!k)) = 0 do
          incr k
        done;
        if !k < stop then begin
          (* Move the watch. *)
          let w = a.(!k) in
          a.(r + 1) <- w;
          a.(!k) <- false_lit;
          Veci.push s.watches.(negate w) r
        end
        else begin
          (* Unit or conflicting. *)
          refs.(!j) <- r;
          incr j;
          if vals.(first) = 0 then begin
            conflict := r;
            (* Copy the rest of the watch list back and stop. *)
            while !i < n do
              refs.(!j) <- refs.(!i);
              incr i;
              incr j
            done
          end
          else enqueue s first r
        end
      end
    done;
    Veci.shrink ws !j
  done;
  !conflict

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 0 to s.nvars - 1 do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.bump s.activity s.order v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let mark s v =
  s.seen.(v) <- true;
  Veci.push s.marked v

(* Clause minimization: a literal whose reason clause consists only of
   literals already marked [seen] (or fixed at level 0) is implied by
   the rest of the clause and can be dropped. The recursion follows
   reason chains; [seen] stays set on the kept literals, which is
   exactly the certificate the check needs, and is set on every
   literal proved redundant along the way (a memo, which makes the
   answers depend on the order of the queries). *)
let rec redundant s q depth =
  depth < 32
  &&
  let r = s.reason.(lit_var q) in
  r >= 0
  &&
  let a = s.arena in
  let stop = r + (a.(r - 1) land size_mask) in
  let ok = ref true in
  for k = r + 1 to stop - 1 do
    if !ok then begin
      let u = lit_var a.(k) in
      if s.level.(u) > 0 && not s.seen.(u) then
        if not (redundant s a.(k) (depth + 1)) then ok := false
        else mark s u
    end
  done;
  !ok

(* First-UIP conflict analysis with recursive clause minimization.
   Leaves the learned clause in [s.learnt], asserting literal first,
   and returns (backtrack level, literal-block distance). It allocates
   nothing that grows with the problem: the scratch lives in the
   solver and is left clean for the next conflict. *)
let analyze s confl =
  Veci.shrink s.lower 0;
  let a = s.arena in
  let counter = ref 0 in
  let p = ref (-1) in
  let trail_idx = ref (Veci.len s.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let r = !confl in
    let start = if !p < 0 then r else r + 1 in
    for k = start to r + (a.(r - 1) land size_mask) - 1 do
      let q = a.(k) in
      let v = lit_var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        mark s v;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else Veci.push s.lower q
      end
    done;
    (* Find the next seen literal on the trail. *)
    while not s.seen.(lit_var (Veci.get s.trail !trail_idx)) do
      decr trail_idx
    done;
    let q = Veci.get s.trail !trail_idx in
    decr trail_idx;
    let v = lit_var q in
    s.seen.(v) <- false;
    decr counter;
    p := q;
    if !counter = 0 then continue := false
    else confl := s.reason.(v)
  done;
  (* Minimize newest literal first (the memo in [redundant] makes the
     order part of the search), compacting the survivors into the top
     of [lower]; the clause lists them newest first. *)
  let n = Veci.len s.lower in
  let kept = ref n in
  for i = n - 1 downto 0 do
    let q = Veci.get s.lower i in
    if not (redundant s q 0) then begin
      decr kept;
      Veci.set s.lower !kept q
    end
  done;
  let lits = s.learnt in
  Veci.shrink lits 0;
  Veci.push lits (negate !p);
  let back_level = ref 0 in
  for k = 1 to n - !kept do
    let q = Veci.get s.lower (n - k) in
    Veci.push lits q;
    back_level := max !back_level s.level.(lit_var q)
  done;
  for i = 0 to Veci.len s.marked - 1 do
    s.seen.(Veci.get s.marked i) <- false
  done;
  Veci.shrink s.marked 0;
  (* LBD: distinct decision levels in the learned clause, each counted
     the first time this conflict's number is stamped on it. *)
  let dl = decision_level s in
  if dl >= Array.length s.level_stamp then begin
    let stamps = Array.make (2 * (dl + 1)) 0 in
    Array.blit s.level_stamp 0 stamps 0 (Array.length s.level_stamp);
    s.level_stamp <- stamps
  end;
  let lbd = ref 0 in
  for k = 0 to Veci.len lits - 1 do
    let lv = s.level.(lit_var (Veci.get lits k)) in
    if s.level_stamp.(lv) <> s.conflicts then begin
      s.level_stamp.(lv) <- s.conflicts;
      incr lbd
    end
  done;
  (!back_level, !lbd)

(* Install the clause [analyze] left in [s.learnt] and assert its first
   literal. *)
let record_learned s ~lbd =
  s.learned <- s.learned + 1;
  let lits = s.learnt in
  let n = Veci.len lits in
  if n = 1 then enqueue s (Veci.get lits 0) (-1)
  else begin
    (* Watch the asserting literal and a literal of the backtrack
       level so propagation stays sound. *)
    let best = ref 1 in
    for k = 2 to n - 1 do
      if
        s.level.(lit_var (Veci.get lits k))
        > s.level.(lit_var (Veci.get lits !best))
      then best := k
    done;
    let tmp = Veci.get lits 1 in
    Veci.set lits 1 (Veci.get lits !best);
    Veci.set lits !best tmp;
    let r = push_clause s lits.Veci.data n ~lbd:(max 1 lbd) in
    enqueue s (Veci.get lits 0) r
  end

(* Clause-database reduction: once the learned clauses pile up, drop
   the worse (higher-LBD) half. Called at a restart point, where no
   surviving assignment depends on a deletable clause except through
   the root level. A clause is a reason exactly when the variable of
   its first literal names it (propagation puts the implied literal
   there and never moves it while it is assigned). The survivors slide
   down the arena in place, in their old order, so each reason follows
   its clause to its new reference, and the watch lists are rebuilt
   from the compacted arena. *)
let reduce_db s =
  let a = s.arena in
  let is_reason r = s.reason.(lit_var a.(r)) = r in
  (* Deletable clauses: learned, LBD above 2, not a reason. *)
  let deletable = Veci.create () in
  let r = ref 1 in
  while !r <= s.arena_len do
    let h = a.(!r - 1) in
    if header_lbd h > 2 && not (is_reason !r) then Veci.push deletable !r;
    r := !r + 1 + (h land size_mask)
  done;
  (* Worst (highest) LBD first, newest (highest reference) first among
     equals. *)
  let sorted = Veci.to_array deletable in
  let lbd r = header_lbd a.(r - 1) in
  Array.sort
    (fun x y -> match compare (lbd y) (lbd x) with 0 -> compare y x | c -> c)
    sorted;
  let to_drop = Array.length sorted / 2 in
  if to_drop > 0 then begin
    for rank = 0 to to_drop - 1 do
      let r = sorted.(rank) in
      a.(r - 1) <- a.(r - 1) lor deleted_mark
    done;
    (* Compact and rewatch in one pass. *)
    Array.iter (fun w -> Veci.shrink w 0) s.watches;
    let next = ref 0 in
    let r = ref 1 in
    while !r <= s.arena_len do
      let h = a.(!r - 1) in
      let size = h land size_mask in
      if h land deleted_mark = 0 then begin
        let r' = !next + 1 in
        let reason = is_reason !r in
        a.(r' - 1) <- h;
        Array.blit a !r a r' size;
        if reason then s.reason.(lit_var a.(r')) <- r';
        Veci.push s.watches.(negate a.(r')) r';
        Veci.push s.watches.(negate a.(r' + 1)) r';
        next := r' + size
      end;
      r := !r + 1 + size
    done;
    s.arena_len <- !next;
    s.deleted <- s.deleted + to_drop;
    s.nclauses <- s.nclauses - to_drop
  end

let luby i =
  (* Luby restart sequence: 1 1 2 1 1 2 4 ... *)
  let rec go k i =
    if i = (1 lsl k) - 1 then 1 lsl (k - 1)
    else if i < (1 lsl (k - 1)) - 1 then go (k - 1) i
    else go (k - 1) (i - ((1 lsl (k - 1)) - 1))
  in
  let rec find_k k = if i < (1 lsl k) - 1 then k else find_k (k + 1) in
  go (find_k 1) i

(* The most active unassigned variable, or -1 when all are assigned. *)
let rec pick_branch s =
  let v = Heap.pop s.activity s.order in
  if v < 0 || s.vals.(pos v) < 0 then v else pick_branch s

exception Done of result

let solve ?(assumptions = []) s =
  s.last_model <- None;
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    (match propagate s with
    | -1 -> ()
    | _ -> s.ok <- false);
    if not s.ok then Unsat
    else
      (* Selectors of active groups are implicit assumptions: while a
         group lives, its clauses are enforced; once retracted they are
         root-satisfied and the selector must no longer be assumed. *)
      let assumptions =
        Array.of_list
          (List.rev_map (fun g -> pos g.sel) s.groups @ assumptions)
      in
      let restart_no = ref 0 in
      let budget = ref (100 * luby 0) in
      try
        while true do
          let confl = propagate s in
          if confl >= 0 then begin
            s.conflicts <- s.conflicts + 1;
            decr budget;
            if decision_level s = 0 then raise (Done Unsat);
            (* Backjumping may unassign assumption levels; the decision
               loop below re-decides them, so no special case is needed
               here. Assumption inconsistency surfaces either as a level-0
               conflict or as a false assumption at decision time. *)
            let back, lbd = analyze s confl in
            cancel_until s (max 0 back);
            record_learned s ~lbd;
            var_decay s
          end
          else if !budget <= 0 && decision_level s > Array.length assumptions
          then begin
            incr restart_no;
            s.restarts <- s.restarts + 1;
            budget := 100 * luby !restart_no;
            cancel_until s (Array.length assumptions)
          end
          else if
            s.conflicts >= s.reduce_at
            && decision_level s <= Array.length assumptions
          then begin
            (* Housekeeping at a quiet point: shed the worse half of
               the learned clauses and grow the next threshold. *)
            cancel_until s 0;
            reduce_db s;
            s.reduce_at <- s.conflicts + 2000 + (300 * (s.deleted / 1000))
          end
          else begin
            (* Assumption decisions first, then activity order. *)
            let dl = decision_level s in
            if dl < Array.length assumptions then begin
              let a = assumptions.(dl) in
              match value_lit s a with
              | 1 ->
                  (* Already implied: open an empty decision level so the
                     indexing into [assumptions] stays aligned. *)
                  Veci.push s.trail_lim (Veci.len s.trail)
              | 0 -> raise (Done Unsat)
              | _ ->
                  Veci.push s.trail_lim (Veci.len s.trail);
                  enqueue s a (-1)
            end
            else begin
              let v = pick_branch s in
              if v < 0 then raise (Done Sat);
              s.decisions <- s.decisions + 1;
              Veci.push s.trail_lim (Veci.len s.trail);
              let l = if s.phase.(v) then pos v else neg v in
              enqueue s l (-1)
            end
          end
        done;
        assert false
      with Done r ->
        (if r = Sat then
           s.last_model <-
             Some (Array.init s.nvars (fun v -> s.vals.(pos v) = 1)));
        r
  end

let model s =
  match s.last_model with
  | Some m -> Array.copy m
  | None -> invalid_arg "Solver.model: no model (last answer was not Sat)"

let value_opt s v =
  match s.last_model with
  | Some m when v >= 0 && v < Array.length m -> Some m.(v)
  | _ -> None

let conflicts s = s.conflicts

let counters s =
  [
    ("sat.clauses", s.nclauses);
    ("sat.conflicts", s.conflicts);
    ("sat.decisions", s.decisions);
    ("sat.deleted", s.deleted);
    ("sat.learned", s.learned);
    ("sat.propagations", s.propagations);
    ("sat.restarts", s.restarts);
    ("sat.vars", s.nvars);
  ]

let stats s =
  Printf.sprintf
    "vars=%d clauses=%d learned=%d deleted=%d conflicts=%d decisions=%d \
     propagations=%d restarts=%d"
    s.nvars s.nclauses s.learned s.deleted s.conflicts s.decisions
    s.propagations s.restarts
