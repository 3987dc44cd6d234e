(* Open-addressed int-keyed map with allocation-free lookup.

   [Hashtbl.find_opt] wraps every hit in a fresh [Some] — roughly two
   minor words per lookup, which the H00x hot-path budget surfaced on
   the L-FIB probes (an H004 calibration gap: statically clean, measured
   allocating).  Here each slot stores the binding as an ['a option]
   built once at insertion, and [find] returns that stored option, so a
   lookup allocates nothing at all.

   Linear probing over a power-of-two table with a multiplicative hash;
   deletions leave tombstones that insertion reuses and resizing sweeps.
   Two int keys are reserved as internal sentinels ([min_int] and
   [min_int + 1]); [replace]/[remove]/[find] reject them.  The intended
   keys — MAC/IPv4 integer encodings, ids — are non-negative, far from
   the sentinels. *)

let empty_key = min_int
let tombstone_key = min_int + 1

type 'a t = {
  mutable keys : int array; (* empty_key | tombstone_key | live key *)
  mutable vals : 'a option array; (* Some v exactly at live slots *)
  mutable live : int;
  mutable fill : int; (* live + tombstones; bounds probe length *)
}

let min_capacity = 16

let create ?(capacity = min_capacity) () =
  let rec pow2 n = if n >= capacity || n <= 0 then max n min_capacity else pow2 (2 * n) in
  let cap = pow2 min_capacity in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap None;
    live = 0;
    fill = 0;
  }

let length t = t.live

let check_key k =
  if k == empty_key || k == tombstone_key then
    invalid_arg "Intmap: min_int and min_int+1 are reserved sentinel keys"

(* Knuth-style multiplicative spread, masked into the table: consecutive
   keys (sequential MAC/IP encodings) must not form probe chains. *)
let slot_of k mask = (k * 0x331A6D9B) land mask

(* Fully-applied recursion (no local ref, no closure): [find] is the
   whole point of the module and sits on the per-packet hot path. *)
let rec find_from keys vals mask k i =
  let cur = Array.unsafe_get keys i in
  if cur = k then Array.unsafe_get vals i
  else if cur = empty_key then None
  else find_from keys vals mask k ((i + 1) land mask)

let find t k =
  check_key k;
  let mask = Array.length t.keys - 1 in
  find_from t.keys t.vals mask k (slot_of k mask)

let mem t k = match find t k with Some _ -> true | None -> false

(* Insertion target: the slot holding [k] if bound, else the first
   tombstone on the probe path if any, else the empty slot that ended
   the probe.  [fill < capacity] always holds, so the scan terminates. *)
let rec insert_slot keys mask k i tomb =
  let cur = Array.unsafe_get keys i in
  if cur = k then (i, true)
  else if cur = empty_key then ((if tomb >= 0 then tomb else i), false)
  else if cur = tombstone_key then
    insert_slot keys mask k ((i + 1) land mask)
      (if tomb >= 0 then tomb else i)
  else insert_slot keys mask k ((i + 1) land mask) tomb

let store t k boxed =
  let mask = Array.length t.keys - 1 in
  let i, existed = insert_slot t.keys mask k (slot_of k mask) (-1) in
  let was_tombstone = Array.unsafe_get t.keys i = tombstone_key in
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.vals i boxed;
  if not existed then begin
    t.live <- t.live + 1;
    if not was_tombstone then t.fill <- t.fill + 1
  end

let rehash t ncap =
  let okeys = t.keys and ovals = t.vals in
  t.keys <- Array.make ncap empty_key;
  t.vals <- Array.make ncap None;
  t.live <- 0;
  t.fill <- 0;
  Array.iteri
    (fun i k ->
      if k <> empty_key && k <> tombstone_key then
        (* Re-store the original boxed option: rehashing reboxes nothing. *)
        store t k (Array.unsafe_get ovals i))
    okeys

let replace t k v =
  check_key k;
  let cap = Array.length t.keys in
  (* Load factor 1/2 over [fill] (tombstones count: they lengthen probe
     chains just like live slots); doubling also sweeps tombstones. *)
  if 2 * (t.fill + 1) > cap then
    rehash t (if 2 * (t.live + 1) > cap then 2 * cap else cap);
  store t k (Some v)

let rec remove_from keys vals mask k i =
  let cur = Array.unsafe_get keys i in
  if cur = k then begin
    Array.unsafe_set keys i tombstone_key;
    Array.unsafe_set vals i None;
    true
  end
  else if cur = empty_key then false
  else remove_from keys vals mask k ((i + 1) land mask)

let remove t k =
  check_key k;
  let mask = Array.length t.keys - 1 in
  if remove_from t.keys t.vals mask k (slot_of k mask) then
    t.live <- t.live - 1

let iter f t =
  Array.iteri
    (fun i k ->
      if k <> empty_key && k <> tombstone_key then
        match Array.unsafe_get t.vals i with Some v -> f k v | None -> ())
    t.keys
