(** End-host (VM) behaviour.

    Hosts resolve destinations with ARP before sending (live state
    dissemination, §III-D3 case i), keep an ARP cache with a TTL, queue
    flows behind an outstanding resolution, and answer ARP requests for
    their own address after a small stack delay. Each flow sends one
    simulated first packet carrying a unique flow id in its port fields;
    the remaining packets of the flow are accounted analytically by the
    caller when classification reports the delivery. *)

open Lazyctrl_net
open Lazyctrl_sim

type t

type flow_meta = {
  id : int;
  src : Ids.Host_id.t;
  dst : Ids.Host_id.t;
  bytes : int;
  packets : int;
  started : Time.t; (** when the application initiated the flow *)
}

type delivery =
  | Data_first of flow_meta  (** first delivery of a flow's first packet *)
  | Data_duplicate           (** Bloom-multicast duplicate or flooded copy *)
  | Arp_handled              (** request answered or reply consumed *)
  | Not_for_host             (** flooded frame for someone else; ignored *)

val create :
  Engine.t ->
  send:(Host.t -> Packet.t -> unit) ->
  arp_ttl:Time.t ->
  stack_delay:Time.t ->
  t
(** [send] injects a frame at the host's edge switch (the caller adds the
    host-port latency). *)

val start_flow : t -> src:Host.t -> dst:Host.t -> bytes:int -> packets:int -> unit
(** Initiate a flow; sends the data packet directly on a warm ARP cache,
    otherwise queues it behind an ARP exchange. Unanswered requests are
    retransmitted with linear backoff (up to 4 retries) before the queued
    flows are abandoned. *)

val deliver : t -> to_:Host.t -> Packet.t -> delivery
(** Process a frame arriving at a host. ARP requests for the host trigger
    a reply after the stack delay; ARP replies resolve the cache and
    release queued flows. *)

val flows_started : t -> int
val flows_delivered : t -> int
val arp_requests_sent : t -> int
val resolutions_failed : t -> int
(** Resolutions abandoned after the retry budget. *)

val pending_resolutions : t -> int
