type t =
  | Zero
  | One
  | Node of { uid : int; v : int; lo : t; hi : t; mutable mark : int }
      (* [mark] is the generation of the last walk that visited the node
         (see [fresh_mark]); it is never part of the node's identity. *)

let id = function Zero -> 0 | One -> 1 | Node n -> n.uid

let equal a b = a == b

let is_zero d = d == Zero
let is_one d = d == One

let zero = Zero
let one = One

let top_var = function
  | Node n -> n.v
  | Zero | One -> invalid_arg "Bdd.top_var: constant"

let low = function
  | Node n -> n.lo
  | Zero | One -> invalid_arg "Bdd.low: constant"

let high = function
  | Node n -> n.hi
  | Zero | One -> invalid_arg "Bdd.high: constant"

(* A variable index strictly larger than any real variable, used as the
   root index of constants so that order comparisons need no special
   cases. *)
let leaf_var = max_int

let var_of = function Zero | One -> leaf_var | Node n -> n.v

let hash a b c =
  let h = (a * 0x9e3779b1) + (b * 0x85ebca77) + (c * 0xc2b2ae3d) in
  h lxor (h lsr 31)

type varset = { vs_id : int; bits : Bytes.t; max_var : int }

type manager = {
  (* Unique table: open addressing with linear probing on a node's own
     (v, lo, hi); [Zero] marks an empty slot. Load stays <= 1/2. *)
  mutable unique : t array;
  mutable live : int; (* unique-table population *)
  mutable next_uid : int;
  (* Computed table: direct-mapped, lossy, shared by every operation.
     Slot i maps key (k1.(i), k2.(i), k3.(i)) to res.(i); k1 carries
     the operation tag, and -1 marks an empty slot. *)
  mutable k1 : int array;
  mutable k2 : int array;
  mutable k3 : int array;
  mutable res : t array;
  mutable next_vs_id : int;
  roots : (int, t * int) Hashtbl.t; (* uid -> (diagram, refcount) *)
  mutable gc_watermark : int; (* allocations between sweeps; 0 = GC off *)
  mutable alloc_since_gc : int;
  (* Effort counters (plain ints: an increment per cache probe is
     noise next to the probe itself). Surfaced by [counters] into the
     engines' observability tracks. *)
  mutable n_alloc : int; (* nodes created (unique-table inserts) *)
  mutable n_hit : int; (* computed-table hits *)
  mutable n_miss : int; (* computed-table misses *)
  mutable n_sweep : int; (* clear_caches calls *)
  mutable n_gc : int; (* mark-and-sweep collections *)
  mutable peak : int; (* largest unique-table population seen *)
}

(* Both tables start at [initial_slots]; the computed table doubles
   with the unique table until it reaches [cache_cap] entries. *)
let initial_slots = 4096
let cache_cap = 1 lsl 18

let resize_cache m n =
  m.k1 <- Array.make n (-1);
  m.k2 <- Array.make n 0;
  m.k3 <- Array.make n 0;
  m.res <- Array.make n Zero

let create_manager ?(gc_watermark = 0) () =
  {
    unique = Array.make initial_slots Zero;
    live = 0;
    next_uid = 2;
    k1 = Array.make initial_slots (-1);
    k2 = Array.make initial_slots 0;
    k3 = Array.make initial_slots 0;
    res = Array.make initial_slots Zero;
    next_vs_id = 0;
    roots = Hashtbl.create 64;
    gc_watermark;
    alloc_since_gc = 0;
    n_alloc = 0;
    n_hit = 0;
    n_miss = 0;
    n_sweep = 0;
    n_gc = 0;
    peak = 0;
  }

let clear_caches m =
  m.n_sweep <- m.n_sweep + 1;
  Array.fill m.k1 0 (Array.length m.k1) (-1);
  Array.fill m.res 0 (Array.length m.res) Zero

(* Operation tags folded into the computed table's first key. *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_restrict = 3
let op_not = 4
let op_ite = 5
let q_exists = 6
let q_forall = 7
let q_and_exists = 8

(* Returned by [cache_find] on a miss; never a real diagram. *)
let absent = Node { uid = -1; v = leaf_var; lo = Zero; hi = Zero; mark = 0 }

let cache_find m tag a b c =
  let k = (a lsl 4) lor tag in
  let i = hash k b c land (Array.length m.k1 - 1) in
  if m.k1.(i) = k && m.k2.(i) = b && m.k3.(i) = c then (
    m.n_hit <- m.n_hit + 1;
    m.res.(i))
  else (
    m.n_miss <- m.n_miss + 1;
    absent)

(* Stores and returns [r]. The slot is recomputed, not remembered from
   [cache_find]: the recursion in between may have resized the table. *)
let cache_put m k b c r =
  let i = hash k b c land (Array.length m.k1 - 1) in
  m.k1.(i) <- k;
  m.k2.(i) <- b;
  m.k3.(i) <- c;
  m.res.(i) <- r

let cache_add m tag a b c r =
  cache_put m ((a lsl 4) lor tag) b c r;
  r

(* The slot holding node (v, lo, hi), or the empty slot where it
   belongs. *)
let rec probe tbl v lo hi i =
  match Array.unsafe_get tbl i with
  | Node n when n.v <> v || n.lo != lo || n.hi != hi ->
      probe tbl v lo hi ((i + 1) land (Array.length tbl - 1))
  | _ -> i

let slot tbl v lo hi =
  probe tbl v lo hi (hash v (id lo) (id hi) land (Array.length tbl - 1))

(* Doubling the unique table keeps every node, so every computed-table
   entry stays true: rehash the filled ones into the larger computed
   table instead of starting it empty. *)
let grow m =
  let old = m.unique in
  let tbl = Array.make (2 * Array.length old) Zero in
  Array.iter
    (function Node n as d -> tbl.(slot tbl n.v n.lo n.hi) <- d | _ -> ())
    old;
  m.unique <- tbl;
  if Array.length m.k1 < cache_cap then begin
    let k1 = m.k1 and k2 = m.k2 and k3 = m.k3 and res = m.res in
    resize_cache m (min cache_cap (Array.length tbl));
    Array.iteri
      (fun i k -> if k >= 0 then cache_put m k k2.(i) k3.(i) res.(i))
      k1
  end

(* Hash-consing constructor with the two ROBDD reduction rules. *)
let mk m v lo hi =
  if lo == hi then lo
  else
    let i = slot m.unique v lo hi in
    match m.unique.(i) with
    | Zero ->
        let d = Node { uid = m.next_uid; v; lo; hi; mark = 0 } in
        m.unique.(i) <- d;
        m.next_uid <- m.next_uid + 1;
        m.n_alloc <- m.n_alloc + 1;
        m.alloc_since_gc <- m.alloc_since_gc + 1;
        m.live <- m.live + 1;
        if m.live > m.peak then m.peak <- m.live;
        if 2 * m.live > Array.length m.unique then grow m;
        d
    | d -> d

(* ------------------------------------------------------------------ *)
(* Root registry and mark-and-sweep node reclamation.

   Hash-consing never forgets a node, so a long fixpoint run grows the
   unique table with every intermediate result it will never look at
   again. The registry lets a client name the diagrams it still holds;
   [gc] then rebuilds the unique table from the nodes they reach and
   clears the computed table (whose entries may reference swept nodes),
   making the dead nodes collectible by the OCaml GC.

   Canonicity survives a sweep because reachability is closed under
   subdiagrams: every kept node's children are kept, and any later
   [mk] rebuilds bottom-up, finding the kept copies in the unique
   table before it can allocate a duplicate. The one obligation is the
   client's: at the moment [gc]/[maybe_gc] runs, every diagram it
   intends to keep using must be reachable from a registered root. *)

let root_incr m d =
  match d with
  | Zero | One -> () (* constants are never in the unique table *)
  | Node n -> (
      match Hashtbl.find_opt m.roots n.uid with
      | Some (_, k) -> Hashtbl.replace m.roots n.uid (d, k + 1)
      | None -> Hashtbl.replace m.roots n.uid (d, 1))

let root_decr m d =
  match d with
  | Zero | One -> ()
  | Node n -> (
      match Hashtbl.find_opt m.roots n.uid with
      | Some (_, 1) -> Hashtbl.remove m.roots n.uid
      | Some (_, k) -> Hashtbl.replace m.roots n.uid (d, k - 1)
      | None -> invalid_arg "Bdd.deref: not a registered root")

let gc m =
  m.n_gc <- m.n_gc + 1;
  m.alloc_since_gc <- 0;
  (* The fresh table doubles as the mark set. Recursion depth is bounded
     by the variable count: the diagrams are ordered. *)
  let tbl = Array.make (Array.length m.unique) Zero in
  m.unique <- tbl;
  m.live <- 0;
  let rec mark = function
    | Zero | One -> ()
    | Node n as d ->
        let i = slot tbl n.v n.lo n.hi in
        if tbl.(i) == Zero then begin
          tbl.(i) <- d;
          m.live <- m.live + 1;
          mark n.lo;
          mark n.hi
        end
  in
  Hashtbl.iter (fun _ (d, _) -> mark d) m.roots;
  (* A stale computed-table hit would resurrect a swept node as a
     physically distinct twin of a future rebuild. *)
  clear_caches m

let maybe_gc m =
  if m.gc_watermark > 0 && m.alloc_since_gc >= m.gc_watermark then gc m

let set_gc_watermark m n =
  if n < 0 then invalid_arg "Bdd.set_gc_watermark: negative watermark";
  m.gc_watermark <- n

let live_nodes m = m.live
let peak_nodes m = m.peak
let gc_count m = m.n_gc

let var m i =
  if i < 0 || i >= leaf_var then invalid_arg "Bdd.var: bad index";
  mk m i Zero One

let nvar m i =
  if i < 0 || i >= leaf_var then invalid_arg "Bdd.nvar: bad index";
  mk m i One Zero

let rec dnot m d =
  match d with
  | Zero -> One
  | One -> Zero
  | Node n ->
      let r = cache_find m op_not n.uid 0 0 in
      if r != absent then r
      else cache_add m op_not n.uid 0 0 (mk m n.v (dnot m n.lo) (dnot m n.hi))

(* Binary boolean operations share one memoized apply; the op code keys
   the cache. Terminal cases are dispatched per operation. *)
let rec apply m op a b =
  let terminal =
    match op with
    | 0 -> (
        (* and *)
        match (a, b) with
        | Zero, _ | _, Zero -> Some Zero
        | One, x | x, One -> Some x
        | _ -> if a == b then Some a else None)
    | 1 -> (
        (* or *)
        match (a, b) with
        | One, _ | _, One -> Some One
        | Zero, x | x, Zero -> Some x
        | _ -> if a == b then Some a else None)
    | _ -> (
        (* xor *)
        match (a, b) with
        | Zero, x | x, Zero -> Some x
        | One, x -> Some (dnot m x)
        | x, One -> Some (dnot m x)
        | _ -> if a == b then Some Zero else None)
  in
  match terminal with
  | Some r -> r
  | None ->
      (* Commutative: normalize the cache key. *)
      let ia = id a and ib = id b in
      let i1, i2 = if ia <= ib then (ia, ib) else (ib, ia) in
      let r = cache_find m op i1 i2 0 in
      if r != absent then r
      else
        let va = var_of a and vb = var_of b in
        let v = min va vb in
        let a0, a1 = if va = v then (low a, high a) else (a, a) in
        let b0, b1 = if vb = v then (low b, high b) else (b, b) in
        cache_add m op i1 i2 0 (mk m v (apply m op a0 b0) (apply m op a1 b1))

let dand m a b = apply m op_and a b
let dor m a b = apply m op_or a b
let xor m a b = apply m op_xor a b
let iff m a b = dnot m (xor m a b)
let imp m a b = dor m (dnot m a) b

let rec ite m f g h =
  match f with
  | One -> g
  | Zero -> h
  | Node _ ->
      if g == h then g
      else if g == One && h == Zero then f
      else
        let r = cache_find m op_ite (id f) (id g) (id h) in
        if r != absent then r
        else
          let v = min (var_of f) (min (var_of g) (var_of h)) in
          let cof d = if var_of d = v then (low d, high d) else (d, d) in
          let f0, f1 = cof f and g0, g1 = cof g and h0, h1 = cof h in
          cache_add m op_ite (id f) (id g) (id h)
            (mk m v (ite m f0 g0 h0) (ite m f1 g1 h1))

let conj m l = List.fold_left (dand m) One l
let disj m l = List.fold_left (dor m) Zero l

(* Walks visit each node once by marking it with a generation no
   earlier walk used, so they need no visited set. The counter is
   shared by every manager and domain; a diagram itself is walked by
   one domain at a time, like every other operation on its manager. *)
let generation = Atomic.make 0
let fresh_mark () = Atomic.fetch_and_add generation 1 + 1

let size d =
  let g = fresh_mark () in
  let rec go acc = function
    | Zero | One -> acc
    | Node n ->
        if n.mark = g then acc
        else begin
          n.mark <- g;
          go (go (acc + 1) n.lo) n.hi
        end
  in
  go 0 d

let support d =
  let g = fresh_mark () in
  (* seen.[v] = '\001' iff variable v labels a visited node *)
  let seen = Stdlib.ref (Bytes.make 64 '\000') and top = Stdlib.ref (-1) in
  let rec go = function
    | Zero | One -> ()
    | Node n ->
        if n.mark <> g then begin
          n.mark <- g;
          let len = Bytes.length !seen in
          if n.v >= len then begin
            let b = Bytes.make (max (2 * len) (n.v + 1)) '\000' in
            Bytes.blit !seen 0 b 0 len;
            seen := b
          end;
          Bytes.set !seen n.v '\001';
          if n.v > !top then top := n.v;
          go n.lo;
          go n.hi
        end
  in
  go d;
  let rec collect acc v =
    if v < 0 then acc
    else collect (if Bytes.get !seen v = '\001' then v :: acc else acc) (v - 1)
  in
  collect [] !top

let varset m vars =
  let max_var = List.fold_left max (-1) vars in
  let bits = Bytes.make (max_var + 1) '\000' in
  List.iter
    (fun v ->
      if v < 0 then invalid_arg "Bdd.varset: negative variable";
      Bytes.set bits v '\001')
    vars;
  let vs = { vs_id = m.next_vs_id; bits; max_var } in
  m.next_vs_id <- m.next_vs_id + 1;
  vs

let vs_mem vs v = v <= vs.max_var && Bytes.get vs.bits v = '\001'

(* Quantifications key the computed table by (op, node, varset): the
   unary ones with their op tag, and_exists with its own. *)
let rec quant m op vs d =
  match d with
  | Zero | One -> d
  | Node n ->
      if n.v > vs.max_var then d
      else
        let r = cache_find m op n.uid vs.vs_id 0 in
        if r != absent then r
        else
          let l = quant m op vs n.lo and h = quant m op vs n.hi in
          let r =
            if vs_mem vs n.v then
              if op = q_exists then dor m l h else dand m l h
            else mk m n.v l h
          in
          cache_add m op n.uid vs.vs_id 0 r

let exists m vs d = quant m q_exists vs d
let forall m vs d = quant m q_forall vs d

let rec and_exists m vs a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | One, d | d, One -> quant m q_exists vs d
  | Node _, Node _ ->
      if a == b then quant m q_exists vs a
      else
        let ia = id a and ib = id b in
        let i1, i2 = if ia <= ib then (ia, ib) else (ib, ia) in
        let r = cache_find m q_and_exists i1 i2 vs.vs_id in
        if r != absent then r
        else
          let va = var_of a and vb = var_of b in
          let v = min va vb in
          let a0, a1 = if va = v then (low a, high a) else (a, a) in
          let b0, b1 = if vb = v then (low b, high b) else (b, b) in
          let r =
            if v > vs.max_var then
              (* No quantified variable can appear below: plain and. *)
              dand m a b
            else if vs_mem vs v then
              let l = and_exists m vs a0 b0 in
              if l == One then One else dor m l (and_exists m vs a1 b1)
            else mk m v (and_exists m vs a0 b0) (and_exists m vs a1 b1)
          in
          cache_add m q_and_exists i1 i2 vs.vs_id r

let rename m f d =
  let memo = Hashtbl.create 256 in
  let rec go = function
    | Zero -> Zero
    | One -> One
    | Node n -> (
        match Hashtbl.find_opt memo n.uid with
        | Some r -> r
        | None ->
            let l = go n.lo and h = go n.hi in
            let v' = f n.v in
            (* Monotonicity check: the renamed root must still be above
               both renamed children (constants report [leaf_var]). *)
            if v' >= var_of l || v' >= var_of h then
              invalid_arg "Bdd.rename: order-violating substitution";
            let r = mk m v' l h in
            Hashtbl.add memo n.uid r;
            r)
  in
  go d

let rec cofactor m i b d =
  match d with
  | Zero | One -> d
  | Node n ->
      if n.v > i then d
      else if n.v = i then if b then n.hi else n.lo
      else
        (* Memoization piggybacks on the unique table via mk; recursion
           cost is bounded by diagram size in practice for our use. *)
        mk m n.v (cofactor m i b n.lo) (cofactor m i b n.hi)

(* Coudert–Madre generalized cofactor ("restrict"): simplify [f] using
   [c] as a care set. The result agrees with [f] wherever [c] holds and
   is unconstrained elsewhere, which sibling substitution exploits to
   merge subgraphs: when one branch of [c] is empty, the whole decision
   collapses onto the other branch of [f]. Memoized under its own tag
   (non-commutative key). *)
let rec restrict m f c =
  if c == One || f == Zero || f == One then f
  else if c == Zero then f (* empty care set: nothing to preserve *)
  else if f == c then One
  else
    let r = cache_find m op_restrict (id f) (id c) 0 in
    if r != absent then r
    else
      let vf = var_of f and vc = var_of c in
      let r =
        if vc < vf then
          (* The care set branches above [f]: no cofactor of [f] to
             pick, so forget the distinction ([exists vc c]). *)
          restrict m f (dor m (low c) (high c))
        else
          let v = vf in
          let c0, c1 = if vc = v then (low c, high c) else (c, c) in
          if c0 == Zero then restrict m (high f) c1
          else if c1 == Zero then restrict m (low f) c0
          else mk m v (restrict m (low f) c0) (restrict m (high f) c1)
      in
      cache_add m op_restrict (id f) (id c) 0 r

let any_sat d =
  let rec go acc = function
    | Zero -> raise Not_found
    | One -> List.rev acc
    | Node n ->
        if n.lo == Zero then go ((n.v, true) :: acc) n.hi
        else go ((n.v, false) :: acc) n.lo
  in
  go [] d

let sat_count m ~nvars d =
  ignore m;
  let memo = Hashtbl.create 256 in
  (* count d = assignments over variables >= v_above extending to sat;
     normalize by tracking the root variable of each subdiagram. *)
  let rec count d =
    match d with
    | Zero -> 0.0
    | One -> 1.0
    | Node n -> (
        match Hashtbl.find_opt memo n.uid with
        | Some c -> c
        | None ->
            let sub child =
              let c = count child in
              let gap =
                match child with
                | Zero | One -> nvars - n.v - 1
                | Node c' -> c'.v - n.v - 1
              in
              c *. (2.0 ** float_of_int gap)
            in
            let c = sub n.lo +. sub n.hi in
            Hashtbl.add memo n.uid c;
            c)
  in
  match d with
  | Zero -> 0.0
  | One -> 2.0 ** float_of_int nvars
  | Node n -> count d *. (2.0 ** float_of_int n.v)

let iter_sat ~nvars d f =
  let assign = Array.make nvars false in
  let rec go v d =
    if v = nvars then (match d with One -> f assign | _ -> ())
    else
      match d with
      | Zero -> ()
      | One | Node _ ->
          let follow b =
            assign.(v) <- b;
            let d' =
              match d with
              | Node n when n.v = v -> if b then n.hi else n.lo
              | _ -> d
            in
            go (v + 1) d'
          in
          follow false;
          follow true
  in
  go 0 d

let counters m =
  [
    ("bdd.cache_hits", m.n_hit);
    ("bdd.cache_misses", m.n_miss);
    ("bdd.cache_sweeps", m.n_sweep);
    ("bdd.gc_count", m.n_gc);
    ("bdd.nodes_allocated", m.n_alloc);
  ]

let stats m =
  Printf.sprintf
    "unique=%d/%d peak=%d computed=%d next_uid=%d hits=%d misses=%d \
     allocs=%d sweeps=%d gcs=%d roots=%d"
    m.live (Array.length m.unique) m.peak (Array.length m.k1) m.next_uid
    m.n_hit m.n_miss m.n_alloc m.n_sweep m.n_gc (Hashtbl.length m.roots)

(* Exported names for the root registry; defined last because [ref]
   shadows [Stdlib.ref]. *)
let ref = root_incr
let deref = root_decr

let with_root m d f =
  root_incr m d;
  Fun.protect ~finally:(fun () -> root_decr m d) f
