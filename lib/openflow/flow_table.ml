open Lazyctrl_sim
module Intmap = Lazyctrl_util.Intmap
module Flat = Lazyctrl_util.Heap.Flat

type entry = {
  priority : int;
  ofmatch : Ofmatch.t;
  actions : Action.t list;
  idle_timeout : Time.t option;
  hard_timeout : Time.t option;
  cookie : int;
}

type live = {
  entry : entry;
  seq : int; (* installation order; later wins among equal priorities *)
  installed_at : Time.t;
  hit : Action.t list option; (* [Some entry.actions], boxed once at install *)
  mutable last_used : Time.t;
  mutable packets : int;
}

(* One bucket per pinned destination MAC; rows sorted by priority
   descending, then seq descending — the order lookup scans in. *)
type bucket = { mutable rows : live list }

type stats = {
  lookups : int;
  hits : int;
  installs : int;
  evictions : int;
  expiries : int;
}

type t = {
  capacity : int;
  buckets : bucket Intmap.t; (* keyed by [Mac.to_int] of the pinned dst_mac *)
  mutable wild : live list; (* dst_mac = None rows, in bucket order *)
  mutable count : int;
  (* Lazy expiry heap over (deadline ns, seq, bucket key); created on the
     first row with a timeout.  An entry may be stale: its row was
     removed, or its idle deadline moved on (see [drain]). *)
  mutable expiry : Flat.t option;
  mutable next_seq : int;
  mutable lookups : int;
  mutable hits : int;
  mutable installs : int;
  mutable evictions : int;
  mutable expiries : int;
}

(* Heap payload naming the wildcard list; MAC keys are non-negative. *)
let wild_key = -1

let key_of (m : Ofmatch.t) =
  match m.dst_mac with Some mac -> Lazyctrl_net.Mac.to_int mac | None -> wild_key

(* "No row" result of the scans below, so they allocate no option. *)
let no_row =
  {
    entry =
      {
        priority = min_int;
        ofmatch = Ofmatch.any;
        actions = [];
        idle_timeout = None;
        hard_timeout = None;
        cookie = 0;
      };
    seq = -1;
    installed_at = Time.zero;
    hit = None;
    last_used = Time.zero;
    packets = 0;
  }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Flow_table.create: capacity must be positive";
  {
    capacity;
    buckets = Intmap.create ();
    wild = [];
    count = 0;
    expiry = None;
    next_seq = 0;
    lookups = 0;
    hits = 0;
    installs = 0;
    evictions = 0;
    expiries = 0;
  }

(* The row expires once [now] reaches this; [max_int] without timeouts. *)
let deadline l =
  let hard =
    match l.entry.hard_timeout with
    | Some h -> Time.to_ns (Time.add l.installed_at h)
    | None -> max_int
  in
  match l.entry.idle_timeout with
  | Some i -> Int.min hard (Time.to_ns (Time.add l.last_used i))
  | None -> hard

let expired ~now l = deadline l <= Time.to_ns now

(* Global order: priority descending, then seq descending. *)
let precedes a b =
  a.entry.priority > b.entry.priority
  || (a.entry.priority = b.entry.priority && a.seq > b.seq)

let cmp_rows a b =
  match Int.compare b.entry.priority a.entry.priority with
  | 0 -> Int.compare b.seq a.seq
  | c -> c

let rows_of t key =
  if key = wild_key then t.wild
  else match Intmap.find t.buckets key with Some b -> b.rows | None -> []

let set_rows t key rows =
  if key = wild_key then t.wild <- rows
  else
    match Intmap.find t.buckets key with
    | Some b -> b.rows <- rows
    | None -> Intmap.replace t.buckets key { rows }

(* Empty buckets are dropped so the map tracks only live destinations. *)
let prune t key =
  if key <> wild_key then
    match Intmap.find t.buckets key with
    | Some { rows = [] } -> Intmap.remove t.buckets key
    | Some _ | None -> ()

let rec without l = function
  | [] -> []
  | x :: rest -> if x == l then rest else x :: without l rest

let remove_row t key l =
  set_rows t key (without l (rows_of t key));
  t.count <- t.count - 1

let rec find_seq seq = function
  | [] -> no_row
  | l :: rest -> if l.seq = seq then l else find_seq seq rest

(* Pop every heap key that has come due.  A key is never later than its
   row's true deadline ([last_used] only grows), so every expired row is
   reached; a row whose idle deadline moved is pushed back with the new
   one, and a key whose row is gone is dropped. *)
let rec drain t h ~now =
  if (not (Flat.is_empty h)) && Flat.min_time h <= now then begin
    let seq = Flat.min_seq h and key = Flat.min_payload h in
    Flat.remove_min h;
    let l = find_seq seq (rows_of t key) in
    (if l != no_row then
       let d = deadline l in
       if d <= now then begin
         remove_row t key l;
         prune t key
       end
       else Flat.push h ~time:d ~seq ~payload:key);
    drain t h ~now
  end

let sweep t ~now =
  match t.expiry with
  | None -> 0
  | Some h ->
      let before = t.count in
      drain t h ~now:(Time.to_ns now);
      let dropped = before - t.count in
      t.expiries <- t.expiries + dropped;
      dropped

let iter_rows t f =
  Intmap.iter (fun _ b -> List.iter f b.rows) t.buckets;
  List.iter f t.wild

let evict_one t =
  (* Lowest priority; among those, the oldest use; then the newest
     install.  A total order, so the bucket visit order cannot show. *)
  let victim = ref no_row in
  iter_rows t (fun l ->
      let best = !victim in
      if
        best == no_row
        || l.entry.priority < best.entry.priority
        || l.entry.priority = best.entry.priority
           && (Time.(l.last_used < best.last_used)
              || (Time.equal l.last_used best.last_used && l.seq > best.seq))
      then victim := l);
  let l = !victim in
  if l != no_row then begin
    let key = key_of l.entry.ofmatch in
    remove_row t key l;
    prune t key;
    t.evictions <- t.evictions + 1
  end

let rec find_same (e : entry) = function
  | [] -> no_row
  | l :: rest ->
      if l.entry.priority = e.priority && Ofmatch.equal l.entry.ofmatch e.ofmatch
      then l
      else find_same e rest

(* A new row carries the highest seq, so it goes in front of the first
   row whose priority is not above its own. *)
let rec insert_sorted l = function
  | x :: rest when x.entry.priority > l.entry.priority ->
      x :: insert_sorted l rest
  | rows -> l :: rows

let install t ~now entry =
  t.installs <- t.installs + 1;
  let key = key_of entry.ofmatch in
  (* Equal matches pin the same dst_mac, so a replaced row shares the
     new row's bucket; the bucket is refilled below, so keep it. *)
  let old = find_same entry (rows_of t key) in
  if old != no_row then remove_row t key old;
  ignore (sweep t ~now);
  if t.count >= t.capacity then evict_one t;
  let l =
    {
      entry;
      seq = t.next_seq;
      installed_at = now;
      hit = Some entry.actions;
      last_used = now;
      packets = 0;
    }
  in
  t.next_seq <- t.next_seq + 1;
  set_rows t key (insert_sorted l (rows_of t key));
  t.count <- t.count + 1;
  let d = deadline l in
  if d < max_int then begin
    let h =
      match t.expiry with
      | Some h -> h
      | None ->
          let h = Flat.create () in
          t.expiry <- Some h;
          h
    in
    Flat.push h ~time:d ~seq:l.seq ~payload:key
  end

let remove_from t key m =
  let rows = rows_of t key in
  let kept = List.filter (fun l -> not (Ofmatch.subsumes m l.entry.ofmatch)) rows in
  let n = List.length rows - List.length kept in
  if n > 0 then begin
    set_rows t key kept;
    t.count <- t.count - n;
    prune t key
  end;
  n

let remove_matching t m =
  match m.Ofmatch.dst_mac with
  | Some mac ->
      (* A pinned dst_mac subsumes only rows pinning the same one. *)
      remove_from t (Lazyctrl_net.Mac.to_int mac) m
  | None ->
      let keys = ref [] in
      Intmap.iter (fun key _ -> keys := key :: !keys) t.buckets;
      List.fold_left (fun n key -> n + remove_from t key m) 0 (wild_key :: !keys)

(* Fully-applied recursion (a local [let rec find = ...] would build a
   closure per lookup, and lookup is on the per-packet hot path). *)
let rec first_match ~now eth = function
  | [] -> no_row
  | l :: rest ->
      if expired ~now l then first_match ~now eth rest
      else if Ofmatch.matches l.entry.ofmatch eth then l
      else first_match ~now eth rest

(* Rows in other buckets pin another dst_mac and cannot match, so the
   winner is the better of the dst bucket's and the wildcard list's
   first live match.  A hit returns the option boxed at install. *)
let lookup t ~now (eth : Lazyctrl_net.Packet.eth) =
  t.lookups <- t.lookups + 1;
  let pinned =
    match Intmap.find t.buckets (Lazyctrl_net.Mac.to_int eth.dst) with
    | Some b -> first_match ~now eth b.rows
    | None -> no_row
  in
  let wild = first_match ~now eth t.wild in
  let l = if wild != no_row && precedes wild pinned then wild else pinned in
  if l == no_row then None
  else begin
    t.hits <- t.hits + 1;
    l.last_used <- now;
    l.packets <- l.packets + 1;
    l.hit
  end

let size t = t.count
let capacity t = t.capacity

let stats t =
  {
    lookups = t.lookups;
    hits = t.hits;
    installs = t.installs;
    evictions = t.evictions;
    expiries = t.expiries;
  }

let entries t =
  let rows = ref [] in
  iter_rows t (fun l -> rows := l :: !rows);
  List.map (fun l -> l.entry) (List.sort cmp_rows !rows)

let packet_count t ~cookie =
  let n = ref 0 in
  iter_rows t (fun l -> if l.entry.cookie = cookie then n := !n + l.packets);
  !n
