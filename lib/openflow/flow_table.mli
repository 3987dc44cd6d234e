(** Prioritized flow table with timeouts and counters, modelling the
    TCAM/flow-table of an edge switch.

    Lookup returns the highest-priority matching entry (ties broken by
    later installation, like Open vSwitch). Entries expire by idle or hard
    timeout; expiry is checked lazily at lookup and eagerly via {!sweep}.
    A capacity bound models limited TCAM space: installing into a full
    table evicts the lowest-priority entry, least recently used among
    those (ties go to the newest install), and counts an eviction.

    Costs. Entries sit in buckets keyed by their pinned [dst_mac], each
    sorted by priority then installation order, plus one list of entries
    that leave [dst_mac] wild. {!lookup} scans only the packet's
    destination bucket and that list, and returns an option built at
    install, so a hit allocates nothing. {!install} touches only its own
    bucket: replacement and ordered insertion cost the bucket's length.
    Timeouts live in a lazy expiry heap keyed by deadline, so {!sweep}
    (run by every install) pops only the keys that have come due —
    expired entries, entries whose idle deadline moved, keys of removed
    entries — at O(log n) each, and costs nothing when none is due.
    Eviction, {!remove_matching} with a wild [dst_mac], {!entries} and
    {!packet_count} scan the whole table. *)

open Lazyctrl_sim

type entry = {
  priority : int;
  ofmatch : Ofmatch.t;
  actions : Action.t list;
  idle_timeout : Time.t option;
  hard_timeout : Time.t option;
  cookie : int;
}

type stats = {
  lookups : int;
  hits : int;
  installs : int;
  evictions : int;
  expiries : int;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 entries. *)

val install : t -> now:Time.t -> entry -> unit
(** Replaces an entry with the same match and priority. *)

val remove_matching : t -> Ofmatch.t -> int
(** Remove all entries whose match is subsumed by the argument (OpenFlow
    delete semantics); returns how many were removed. *)

val lookup : t -> now:Time.t -> Lazyctrl_net.Packet.eth -> Action.t list option
(** Highest-priority live match; bumps counters and the idle deadline. *)

val sweep : t -> now:Time.t -> int
(** Drop all expired entries; returns how many. *)

val size : t -> int
val capacity : t -> int
val stats : t -> stats
val entries : t -> entry list
(** Live entries in decreasing priority order (for inspection/tests). *)

val packet_count : t -> cookie:int -> int
(** Total packets matched by entries carrying the cookie. *)
