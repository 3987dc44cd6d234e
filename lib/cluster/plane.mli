(** Whole-network wiring for a controller cluster.

    Like {!Lazyctrl_core.Network} in lazy mode — the same
    {!Lazyctrl_core.Fabric} data plane — but with [n_members]
    controller instances instead of one. Every member has its own pair of
    control channels to every switch (master spoke plus slave spokes used
    only for OAM probing), and the members are joined by a full mesh of
    coordination channels carrying {!Coord} messages.

    The management plane — the [uplink] (current master) and [term]
    (mastership generation) per switch — lives here, mirroring how real
    deployments arbitrate mastership below the controller applications
    (OpenFlow role/generation_id). A {!Coord.view_entry} claim is applied
    synchronously at claim time: stale terms are rejected with feedback,
    winning claims flip the uplink and forward the {!Lazyctrl_switch.Proto.Rehome}
    to the switch on the new master's FIFO channel, ahead of the config
    push that follows. Messages from a stale master are discarded on
    arrival, so a switch never acts on two masters at once. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core

type t

val create :
  ?params:Params.t ->
  ?controller_config:Controller.config ->
  ?member_config:Member.config ->
  ?coord_latency:Time.t ->
  n_members:int ->
  topo:Topology.t ->
  unit ->
  t
(** Builds switches, the per-member channel fabric, the coordination
    mesh, controllers, members, underlay and host model.
    [coord_latency] (default 500 µs) is the inter-controller link
    latency. @raise Invalid_argument when [n_members < 2]. *)

val bootstrap : t -> unit
(** Run IniGroup over the placement-derived intensity prior, assign group
    [g] to member [g mod n_members], seed the management plane, and start
    every member (each claims and configures its own slice). *)

val engine : t -> Engine.t
val topology : t -> Topology.t
val host_model : t -> Host_model.t
val n_members : t -> int
val run : t -> until:Time.t -> unit

val controller : t -> int -> Controller.t
val member : t -> int -> Member.t
val edge_switch : t -> Ids.Switch_id.t -> Edge_switch.t

val alive_members : t -> int list
(** Ascending member indices currently alive. *)

val uplink_of : t -> Ids.Switch_id.t -> int
(** The member currently mastering the switch (management-plane truth). *)

val term_of : t -> Ids.Switch_id.t -> int

val live_switches : t -> (Ids.Switch_id.t * Edge_switch.t) list

val start_flow :
  t -> src:Ids.Host_id.t -> dst:Ids.Host_id.t -> bytes:int -> packets:int -> unit

(** {1 Fault injection} *)

val kill_member : t -> int -> unit
(** Kill a cluster member: its switch channels and coordination links go
    down, its timers stop, its groups are orphaned. Idempotent. *)

val revive_member : t -> int -> unit
(** Bring a killed member back: links repaired, member restarted owning
    nothing (EASM refills it). Also clears any partition. Idempotent. *)

val partition_member : t -> int -> unit
(** Cut the member off the coordination mesh only — its switch spokes
    stay up, so both sides of the split keep running until terms
    reconcile at heal time. Idempotent. *)

val heal_member : t -> int -> unit

val fail_switch : t -> Ids.Switch_id.t -> unit
val repair_switch : t -> Ids.Switch_id.t -> unit

val set_control_loss : t -> Lazyctrl_openflow.Channel.loss_spec option -> unit
(** Loss model on every switch ↔ member control channel. The coordination
    mesh is deliberately loss-free (inter-controller links are reliable
    transports in deployment); it only goes down under faults. *)

val set_peer_loss : t -> Lazyctrl_openflow.Channel.loss_spec option -> unit

(** {1 Aggregate accounting} *)

val switch_stats_sum : t -> Edge_switch.stats

val ctrl_bytes_sent : t -> int
(** Encoded bytes offered on the switch-facing control spokes of every
    member (both directions).  The coordination mesh is value-passing and
    deliberately uncounted — management-plane traffic between controller
    processes, not switch-facing control load (DESIGN.md §13). *)

val reliability_stats : t -> Lazyctrl_openflow.Reliable.stats
(** Aggregate over every reliable session anywhere in the cluster:
    controller-side, switch-side, and the inter-member coordination
    sessions. [violations = 0] is the cluster-wide exactly-once audit. *)

val member_stats_sum : t -> Member.stats
