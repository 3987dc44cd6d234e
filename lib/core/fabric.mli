(** The LazyCtrl data plane of §III, built once for every control side.

    Edge switches with L-FIB/G-FIB, each registered on the underlay, joined
    by a peer-link mesh created on demand, with every host of the topology
    attached to its edge switch. {!Network} puts one controller on top and
    [Lazyctrl_cluster.Plane] a cluster of them; the two differ only in the
    [to_controller] and [on_delivery] arguments to {!create}. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_openflow
open Lazyctrl_switch

val channel :
  Params.t -> Engine.t -> latency:Time.t -> loss:Channel.loss_spec option ->
  string -> Edge_switch.msg Channel.t
(** A strict channel of the given name carrying DESIGN.md §13-encoded
    frames, with [loss] applied as by {!apply_loss}. *)

val apply_loss : Params.t -> Channel.loss_spec option -> 'a Channel.t -> unit
(** Attach (or with [None], clear) a loss model. Draws come from a
    sub-stream of [params.seed] keyed by the channel name, so they never
    depend on other channels or on when the model was set. *)

val host_side :
  params:Params.t -> engine:Engine.t -> topo:Topology.t ->
  from_host:(int -> Host.t -> Packet.t -> unit) ->
  on_delivery:(Host_model.delivery -> unit) ->
  Host_model.t * (Host.t -> Packet.t -> unit)
(** The host model over any switch type, and its [deliver_local]. Each
    direction costs the host-port latency: a host's frame reaches
    [from_host] at its switch index at send time, and a delivered frame's
    host-model verdict goes to [on_delivery]. *)

type t

val create :
  ?tracer:Lazyctrl_trace.Tracer.t -> params:Params.t -> engine:Engine.t ->
  topo:Topology.t -> underlay:Underlay.t ->
  to_controller:(int -> Edge_switch.msg Channel.t) ->
  on_delivery:(Host_model.delivery -> unit) -> unit -> t
(** Switch [i] sends control traffic on [to_controller i], looked up at
    each send. Creation schedules no events. *)

val hosts : t -> Host_model.t
val switch : t -> Ids.Switch_id.t -> Edge_switch.t

val live_switches : t -> (Ids.Switch_id.t * Edge_switch.t) list
(** Powered-on switches in ascending id order. *)

val peer_channel :
  t -> src:Ids.Switch_id.t -> dst:Ids.Switch_id.t -> Edge_switch.msg Channel.t
(** The peer link ["peer-src-dst"], created with the current peer loss on
    first use. *)

val peer_channels : t -> Edge_switch.msg Channel.t list
(** Every peer link created so far, in key order. *)

val fail_switch : t -> Ids.Switch_id.t -> unit
val repair_switch : t -> Ids.Switch_id.t -> unit
val set_peer_loss : t -> Channel.loss_spec option -> unit
(** Also applies to peer links created later. *)

val switch_stats_sum : t -> Edge_switch.stats
val reliable_stats : t -> Reliable.stats
(** Over every switch's own reliable sessions. *)
