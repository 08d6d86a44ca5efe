(* A diagram is an int handle: 0 is [zero], 1 is [one], and every other
   handle is the uid of an internal node, issued from 2 in allocation
   order and never reused. A node's fields live in its manager's flat
   int pages, so creating one writes three ints and probing one reads
   them back: no record is allocated, promoted or written through the
   GC's barrier. *)
type t = int

let id d = d

let equal (a : t) b = a = b

let is_zero d = d = 0
let is_one d = d = 1

let zero = 0
let one = 1

(* A variable index strictly larger than any real variable, stored as
   the root index of constants so that order comparisons need no
   special cases. *)
let leaf_var = max_int

let hash a b c =
  let h = (a * 0x9e3779b1) + (b * 0x85ebca77) + (c * 0xc2b2ae3d) in
  h lxor (h lsr 31)

type varset = { vs_id : int; bits : Bytes.t; max_var : int }

type manager = {
  (* Node storage in pages of [page_size] nodes: node d is (v, lo, hi)
     at offsets 3i, 3i+1 and 3i+2 of page [d / page_size], where
     i = d mod page_size. The constants occupy handles 0 and 1 with
     [leaf_var] as their root. Storage only grows, a page at a time, so
     growing copies no node and leaves no garbage; a sweep takes nodes
     out of the unique table, not out of here, so a handle stays
     meaningful for as long as the manager lives. *)
  mutable pages : int array array;
  (* Walk state, indexed by handle and grown on demand to cover every
     handle issued so far. [marks.[d]] is the generation of the last walk
     that visited node d (see [fresh_gen]). [scratch] holds, in pages
     laid out like node storage, that walk's memo value for d, valid
     only while the mark matches. *)
  mutable marks : Bytes.t;
  mutable gen : int;
  mutable scratch : int array array;
  (* Unique table: open addressing with linear probing on the hash of a
     node's own (v, lo, hi). A filled slot holds the node's tag (the
     hash's low [tag_bits] bits) above its handle, [tag lsl 32 lor d],
     so a probe reads a node's page only when the tags are equal; -1
     marks an empty slot. Load stays <= 1/2. *)
  mutable unique : int array;
  mutable live : int; (* unique-table population *)
  mutable next_uid : int;
  (* Computed table: direct-mapped, lossy, shared by every operation.
     Slot i is the four words from 4i: key1 (carrying the operation
     tag; -1 marks an empty slot), key2, key3 and the result, so a
     lookup and its store touch one cache line. *)
  mutable cache : int array;
  mutable next_vs_id : int;
  roots : (int, int) Hashtbl.t; (* handle -> refcount *)
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

(* The unique and computed tables start at [initial_slots] slots; the
   computed table doubles with the unique table until it reaches
   [cache_cap] slots. Node storage grows a page of [page_size] nodes at
   a time. *)
let initial_slots = 4096
let cache_cap = 1 lsl 18
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* A unique-table slot packs a [tag_bits]-bit tag, the low bits of the
   node's hash, above a 32-bit handle. A node's home slot is
   [tag land (len - 1)], so [grow] re-places entries without reading a
   node; while the table has at most 2^tag_bits slots, that is the slot
   the full hash would pick. *)
let tag_bits = 30
let tag_mask = (1 lsl tag_bits) - 1
let handle_mask = (1 lsl 32) - 1

(* Field [k] of node [d]. The offset is below the page's length by
   construction, so only the page index is checked. *)
let field pages d k =
  Array.unsafe_get pages.(d lsr page_bits) ((3 * (d land page_mask)) + k)

let var_of m d = field m.pages d 0
let lo_of m d = field m.pages d 1
let hi_of m d = field m.pages d 2

let top_var m d =
  if d < 2 then invalid_arg "Bdd.top_var: constant" else var_of m d

let low m d = if d < 2 then invalid_arg "Bdd.low: constant" else lo_of m d
let high m d = if d < 2 then invalid_arg "Bdd.high: constant" else hi_of m d

(* A computed table of [n] empty slots. *)
let empty_cache n =
  let t = Array.make (4 * n) 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set t (4 * i) (-1)
  done;
  t

let cache_slots m = Array.length m.cache lsr 2

let create_manager ?(gc_watermark = 0) () =
  let page = Array.make (3 * page_size) 0 in
  page.(0) <- leaf_var;
  page.(3) <- leaf_var;
  {
    pages = [| page |];
    marks = Bytes.empty;
    gen = 0;
    scratch = [||];
    unique = Array.make initial_slots (-1);
    live = 0;
    next_uid = 2;
    cache = empty_cache initial_slots;
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
  let t = m.cache in
  for i = 0 to cache_slots m - 1 do
    Array.unsafe_set t (4 * i) (-1)
  done

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

(* Index in [t] of the first of the four words of key (k, b, c)'s slot. *)
let cache_index t k b c = (hash k b c land ((Array.length t lsr 2) - 1)) lsl 2

(* The result stored under the key, or -1 (never a handle) on a miss. *)
let cache_find m tag a b c =
  let k = (a lsl 4) lor tag in
  let t = m.cache in
  let j = cache_index t k b c in
  if
    Array.unsafe_get t j = k
    && Array.unsafe_get t (j + 1) = b
    && Array.unsafe_get t (j + 2) = c
  then (
    m.n_hit <- m.n_hit + 1;
    Array.unsafe_get t (j + 3))
  else (
    m.n_miss <- m.n_miss + 1;
    -1)

(* Stores [r] under the key in table [t]. The slot is recomputed, not
   remembered from [cache_find]: the recursion in between may have
   resized the table. *)
let cache_put t k b c r =
  let j = cache_index t k b c in
  Array.unsafe_set t j k;
  Array.unsafe_set t (j + 1) b;
  Array.unsafe_set t (j + 2) c;
  Array.unsafe_set t (j + 3) r

let cache_add m tag a b c r =
  cache_put m.cache ((a lsl 4) lor tag) b c r;
  r

(* The slot holding node (v, lo, hi), whose hash has the low bits
   [tag], or the empty slot where it belongs. A node's fields are read
   only behind an equal tag. *)
let rec probe pages tbl tag v lo hi i =
  let e = Array.unsafe_get tbl i in
  if
    e >= 0
    && (e lsr 32 <> tag
       ||
       let d = e land handle_mask in
       field pages d 0 <> v || field pages d 1 <> lo || field pages d 2 <> hi)
  then probe pages tbl tag v lo hi ((i + 1) land (Array.length tbl - 1))
  else i

let tag_of v lo hi = hash v lo hi land tag_mask

let slot pages tbl tag v lo hi =
  probe pages tbl tag v lo hi (tag land (Array.length tbl - 1))

(* Doubling the unique table keeps every node, so every computed-table
   entry stays true: rehash the filled ones into the larger computed
   table instead of starting it empty. The unique entries are distinct,
   so each goes to the first empty slot from its tag's index. *)
let grow m =
  let old = m.unique in
  let mask = (2 * Array.length old) - 1 in
  let tbl = Array.make (mask + 1) (-1) in
  Array.iter
    (fun e ->
      if e >= 0 then begin
        let i = Stdlib.ref ((e lsr 32) land mask) in
        while Array.unsafe_get tbl !i >= 0 do
          i := (!i + 1) land mask
        done;
        Array.unsafe_set tbl !i e
      end)
    old;
  m.unique <- tbl;
  let slots = cache_slots m in
  if slots < cache_cap then begin
    let t = m.cache in
    let t' = empty_cache (min cache_cap (Array.length tbl)) in
    for i = 0 to slots - 1 do
      let j = 4 * i in
      let k = Array.unsafe_get t j in
      if k >= 0 then
        cache_put t' k
          (Array.unsafe_get t (j + 1))
          (Array.unsafe_get t (j + 2))
          (Array.unsafe_get t (j + 3))
    done;
    m.cache <- t'
  end

(* Hash-consing constructor with the two ROBDD reduction rules. *)
let mk m v lo hi =
  if lo = hi then lo
  else
    let tag = tag_of v lo hi and tbl = m.unique in
    let i = slot m.pages tbl tag v lo hi in
    let e = tbl.(i) in
    if e >= 0 then e land handle_mask
    else begin
      let d = m.next_uid in
      if d > handle_mask then
        failwith
          "Bdd.mk: node handles exhausted (a handle must fit in 32 bits)";
      if d lsr page_bits = Array.length m.pages then
        m.pages <- Array.append m.pages [| Array.make (3 * page_size) 0 |];
      let page = m.pages.(d lsr page_bits) and b = 3 * (d land page_mask) in
      page.(b) <- v;
      page.(b + 1) <- lo;
      page.(b + 2) <- hi;
      tbl.(i) <- (tag lsl 32) lor d;
      m.next_uid <- d + 1;
      m.n_alloc <- m.n_alloc + 1;
      m.alloc_since_gc <- m.alloc_since_gc + 1;
      m.live <- m.live + 1;
      if m.live > m.peak then m.peak <- m.live;
      if 2 * m.live > Array.length m.unique then grow m;
      d
    end

(* ------------------------------------------------------------------ *)
(* Root registry and mark-and-sweep reclamation of the unique table.

   Hash-consing never forgets a node, so a long fixpoint run grows the
   unique table with every intermediate result it will never look at
   again. The registry lets a client name the diagrams it still holds;
   [gc] then rebuilds the unique table from the nodes they reach and
   clears the computed table (whose entries may name swept nodes), so
   both tables stay the size of the live diagrams. Node storage is
   left alone: handles are never reused, so a swept node keeps its
   fields and an unrooted handle still denotes its function.

   Canonicity survives a sweep because reachability is closed under
   subdiagrams: every kept node's children are kept, and any later
   [mk] rebuilds bottom-up, finding the kept nodes in the unique table
   before it can allocate a duplicate. The one obligation is the
   client's: at the moment [gc]/[maybe_gc] runs, every diagram it
   intends to keep using as canonical must be reachable from a
   registered root. *)

let root_incr m d =
  if d >= 2 then
    (* constants are never in the unique table *)
    match Hashtbl.find_opt m.roots d with
    | Some k -> Hashtbl.replace m.roots d (k + 1)
    | None -> Hashtbl.replace m.roots d 1

let root_decr m d =
  if d >= 2 then
    match Hashtbl.find_opt m.roots d with
    | Some 1 -> Hashtbl.remove m.roots d
    | Some k -> Hashtbl.replace m.roots d (k - 1)
    | None -> invalid_arg "Bdd.deref: not a registered root"

let gc m =
  m.n_gc <- m.n_gc + 1;
  m.alloc_since_gc <- 0;
  (* The fresh table doubles as the mark set. Recursion depth is bounded
     by the variable count: the diagrams are ordered. *)
  let tbl = Array.make (Array.length m.unique) (-1) in
  m.unique <- tbl;
  m.live <- 0;
  let rec mark d =
    if d >= 2 then begin
      let v = var_of m d and lo = lo_of m d and hi = hi_of m d in
      let tag = tag_of v lo hi in
      let i = slot m.pages tbl tag v lo hi in
      if tbl.(i) < 0 then begin
        tbl.(i) <- (tag lsl 32) lor d;
        m.live <- m.live + 1;
        mark (lo_of m d);
        mark (hi_of m d)
      end
    end
  in
  Hashtbl.iter (fun d _ -> mark d) m.roots;
  (* A stale computed-table hit would resurrect a swept node as a twin
     of a future rebuild. *)
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
  mk m i zero one

let nvar m i =
  if i < 0 || i >= leaf_var then invalid_arg "Bdd.nvar: bad index";
  mk m i one zero

let rec dnot m d =
  if d < 2 then 1 - d
  else
    let r = cache_find m op_not d 0 0 in
    if r >= 0 then r
    else
      cache_add m op_not d 0 0
        (mk m (var_of m d) (dnot m (lo_of m d)) (dnot m (hi_of m d)))

(* Binary boolean operations share one memoized apply; the op code keys
   the cache. Terminal cases are dispatched per operation. *)
let rec apply m op a b =
  match op with
  | 0 ->
      (* and *)
      if a = 0 || b = 0 then 0
      else if a = 1 then b
      else if b = 1 || a = b then a
      else apply_node m op a b
  | 1 ->
      (* or *)
      if a = 1 || b = 1 then 1
      else if a = 0 then b
      else if b = 0 || a = b then a
      else apply_node m op a b
  | _ ->
      (* xor *)
      if a = 0 then b
      else if b = 0 then a
      else if a = 1 then dnot m b
      else if b = 1 then dnot m a
      else if a = b then 0
      else apply_node m op a b

and apply_node m op a b =
  (* Commutative: normalize the cache key. *)
  let i1 = if a <= b then a else b and i2 = if a <= b then b else a in
  let r = cache_find m op i1 i2 0 in
  if r >= 0 then r
  else
    let va = var_of m a and vb = var_of m b in
    let v = if va <= vb then va else vb in
    let a0 = if va = v then lo_of m a else a
    and a1 = if va = v then hi_of m a else a
    and b0 = if vb = v then lo_of m b else b
    and b1 = if vb = v then hi_of m b else b in
    cache_add m op i1 i2 0 (mk m v (apply m op a0 b0) (apply m op a1 b1))

let dand m a b = apply m op_and a b
let dor m a b = apply m op_or a b
let xor m a b = apply m op_xor a b
let iff m a b = dnot m (xor m a b)
let imp m a b = dor m (dnot m a) b

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let r = cache_find m op_ite f g h in
    if r >= 0 then r
    else
      let vf = var_of m f and vg = var_of m g and vh = var_of m h in
      let v = if vg <= vh then vg else vh in
      let v = if vf <= v then vf else v in
      let f0 = if vf = v then lo_of m f else f
      and f1 = if vf = v then hi_of m f else f
      and g0 = if vg = v then lo_of m g else g
      and g1 = if vg = v then hi_of m g else g
      and h0 = if vh = v then lo_of m h else h
      and h1 = if vh = v then hi_of m h else h in
      cache_add m op_ite f g h (mk m v (ite m f0 g0 h0) (ite m f1 g1 h1))

let conj m l = List.fold_left (dand m) one l
let disj m l = List.fold_left (dor m) zero l

(* Walks visit each node once by stamping it with a generation no
   earlier walk of the manager has used, so they need no visited set.
   A generation is one byte: after 255 walks the marks are cleared and
   the count starts over. The stamps are per manager, so a manager is
   walked by one domain at a time, like every other operation on it. *)
let fresh_gen m =
  let n = m.next_uid in
  if Bytes.length m.marks < n then begin
    let b = Bytes.make (max n (2 * Bytes.length m.marks)) '\000' in
    Bytes.blit m.marks 0 b 0 (Bytes.length m.marks);
    m.marks <- b
  end;
  if m.gen = 255 then begin
    Bytes.fill m.marks 0 (Bytes.length m.marks) '\000';
    m.gen <- 0
  end;
  m.gen <- m.gen + 1;
  Char.chr m.gen

(* [fresh_gen] for a walk that memoizes a value per visited node in
   [scratch]. The pages are added, never copied: no value outlives its
   walk. *)
let fresh_memo m =
  let g = fresh_gen m in
  let have = Array.length m.scratch
  and need = (m.next_uid + page_mask) lsr page_bits in
  if have < need then
    m.scratch <-
      Array.append m.scratch
        (Array.init (need - have) (fun _ -> Array.make page_size 0));
  g

let memo m d = m.scratch.(d lsr page_bits).(d land page_mask)
let set_memo m d r = m.scratch.(d lsr page_bits).(d land page_mask) <- r

let visited m g d = Bytes.get m.marks d = g
let stamp m g d = Bytes.set m.marks d g

let size m d =
  let g = fresh_gen m in
  let rec go acc d =
    if d < 2 || visited m g d then acc
    else begin
      stamp m g d;
      go (go (acc + 1) (lo_of m d)) (hi_of m d)
    end
  in
  go 0 d

let support m d =
  let g = fresh_gen m in
  (* seen.[v] = '\001' iff variable v labels a visited node *)
  let seen = Stdlib.ref (Bytes.make 64 '\000') and top = Stdlib.ref (-1) in
  let rec go d =
    if d >= 2 && not (visited m g d) then begin
      stamp m g d;
      let v = var_of m d in
      let len = Bytes.length !seen in
      if v >= len then begin
        let b = Bytes.make (max (2 * len) (v + 1)) '\000' in
        Bytes.blit !seen 0 b 0 len;
        seen := b
      end;
      Bytes.set !seen v '\001';
      if v > !top then top := v;
      go (lo_of m d);
      go (hi_of m d)
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
  if d < 2 then d
  else
    let v = var_of m d in
    if v > vs.max_var then d
    else
      let r = cache_find m op d vs.vs_id 0 in
      if r >= 0 then r
      else
        let l = quant m op vs (lo_of m d) and h = quant m op vs (hi_of m d) in
        let r =
          if vs_mem vs v then if op = q_exists then dor m l h else dand m l h
          else mk m v l h
        in
        cache_add m op d vs.vs_id 0 r

let exists m vs d = quant m q_exists vs d
let forall m vs d = quant m q_forall vs d

let rec and_exists m vs a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then quant m q_exists vs b
  else if b = 1 || a = b then quant m q_exists vs a
  else
    let i1 = if a <= b then a else b and i2 = if a <= b then b else a in
    let r = cache_find m q_and_exists i1 i2 vs.vs_id in
    if r >= 0 then r
    else
      let va = var_of m a and vb = var_of m b in
      let v = if va <= vb then va else vb in
      let a0 = if va = v then lo_of m a else a
      and a1 = if va = v then hi_of m a else a
      and b0 = if vb = v then lo_of m b else b
      and b1 = if vb = v then hi_of m b else b in
      let r =
        if v > vs.max_var then
          (* No quantified variable can appear below: plain and. *)
          dand m a b
        else if vs_mem vs v then
          let l = and_exists m vs a0 b0 in
          if l = 1 then 1 else dor m l (and_exists m vs a1 b1)
        else mk m v (and_exists m vs a0 b0) (and_exists m vs a1 b1)
      in
      cache_add m q_and_exists i1 i2 vs.vs_id r

(* One renaming per call, memoized per source node in [scratch]. [f]
   runs inside the walk, so it must not walk this manager itself. *)
let rename m f d =
  let g = fresh_memo m in
  let rec go d =
    if d < 2 then d
    else if visited m g d then memo m d
    else
      let l = go (lo_of m d) and h = go (hi_of m d) in
      let v' = f (var_of m d) in
      (* Monotonicity check: the renamed root must still be above both
         renamed children (constants report [leaf_var]). *)
      if v' >= var_of m l || v' >= var_of m h then
        invalid_arg "Bdd.rename: order-violating substitution";
      let r = mk m v' l h in
      stamp m g d;
      set_memo m d r;
      r
  in
  go d

(* Coudert–Madre generalized cofactor ("restrict"): simplify [f] using
   [c] as a care set. The result agrees with [f] wherever [c] holds and
   is unconstrained elsewhere, which sibling substitution exploits to
   merge subgraphs: when one branch of [c] is empty, the whole decision
   collapses onto the other branch of [f]. Memoized under its own tag
   (non-commutative key). *)
let rec restrict m f c =
  if c = 1 || f < 2 then f
  else if c = 0 then f (* empty care set: nothing to preserve *)
  else if f = c then 1
  else
    let r = cache_find m op_restrict f c 0 in
    if r >= 0 then r
    else
      let vf = var_of m f and vc = var_of m c in
      let r =
        if vc < vf then
          (* The care set branches above [f]: no cofactor of [f] to
             pick, so forget the distinction ([exists vc c]). *)
          restrict m f (dor m (lo_of m c) (hi_of m c))
        else
          let c0 = if vc = vf then lo_of m c else c
          and c1 = if vc = vf then hi_of m c else c in
          if c0 = 0 then restrict m (hi_of m f) c1
          else if c1 = 0 then restrict m (lo_of m f) c0
          else
            mk m vf (restrict m (lo_of m f) c0) (restrict m (hi_of m f) c1)
      in
      cache_add m op_restrict f c 0 r

let any_sat m d =
  let rec go acc d =
    if d = 0 then raise Not_found
    else if d = 1 then List.rev acc
    else if lo_of m d = 0 then go ((var_of m d, true) :: acc) (hi_of m d)
    else go ((var_of m d, false) :: acc) (lo_of m d)
  in
  go [] d

(* count d = assignments of the variables from d's root down that
   satisfy d. A node's count is kept in [counts], at the index its
   [scratch] entry holds. *)
let sat_count m ~nvars d =
  let g = fresh_memo m in
  let counts = Stdlib.ref (Array.make 64 0.0) and n = Stdlib.ref 0 in
  let rec count d =
    if d = 0 then 0.0
    else if d = 1 then 1.0
    else if visited m g d then !counts.(memo m d)
    else
      let v = var_of m d in
      let sub child =
        let c = count child in
        let gap = (if child < 2 then nvars else var_of m child) - v - 1 in
        c *. (2.0 ** float_of_int gap)
      in
      let c = sub (lo_of m d) +. sub (hi_of m d) in
      if !n = Array.length !counts then
        counts := Array.append !counts (Array.make !n 0.0);
      !counts.(!n) <- c;
      stamp m g d;
      set_memo m d !n;
      incr n;
      c
  in
  if d = 0 then 0.0
  else if d = 1 then 2.0 ** float_of_int nvars
  else count d *. (2.0 ** float_of_int (var_of m d))

let iter_sat m ~nvars d f =
  let assign = Array.make nvars false in
  let rec go v d =
    if v = nvars then (if d = 1 then f assign)
    else if d <> 0 then begin
      let follow b =
        assign.(v) <- b;
        let d' =
          if d >= 2 && var_of m d = v then if b then hi_of m d else lo_of m d
          else d
        in
        go (v + 1) d'
      in
      follow false;
      follow true
    end
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
    m.live (Array.length m.unique) m.peak (cache_slots m) m.next_uid
    m.n_hit m.n_miss m.n_alloc m.n_sweep m.n_gc (Hashtbl.length m.roots)

(* Exported names for the root registry; defined last because [ref]
   shadows [Stdlib.ref]. *)
let ref = root_incr
let deref = root_decr

let with_root m d f =
  root_incr m d;
  Fun.protect ~finally:(fun () -> root_decr m d) f
