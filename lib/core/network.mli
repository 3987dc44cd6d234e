(** Whole-network simulation wiring.

    Builds the complete system of §IV for a given topology and mode —
    either the LazyCtrl hybrid plane (edge switches with L-FIB/G-FIB,
    designated switches, central controller) or the standard-OpenFlow
    comparison plane (dumb switches, reactive learning controller) — over
    one shared discrete-event engine, underlay, host model, and metrics
    recorder. This is the entry point examples, experiments, and the CLI
    drive. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_graph
open Lazyctrl_topo
open Lazyctrl_traffic
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_baseline
open Lazyctrl_metrics

type mode = Lazy | Openflow

type t

val create :
  ?params:Params.t ->
  ?controller_config:Controller.config ->
  ?of_config:Of_controller.config ->
  ?tracer:Lazyctrl_trace.Tracer.t ->
  mode:mode ->
  topo:Topology.t ->
  horizon:Time.t ->
  unit ->
  t
(** Builds switches, channels, controller and host model; attaches every
    host in the topology to its edge switch.  [tracer] (default
    disabled) is threaded through the lazy plane — edge switches,
    controller, reliable sessions — so a run can be flight-recorded;
    the baseline OpenFlow plane is not instrumented. *)

val engine : t -> Engine.t
val recorder : t -> Recorder.t

val tracer : t -> Lazyctrl_trace.Tracer.t
(** The tracer passed at creation (or the disabled singleton). *)

val topology : t -> Topology.t
val mode : t -> mode
val host_model : t -> Host_model.t
val underlay : t -> Underlay.t

val default_intensity : Topology.t -> Wgraph.t
(** A placement-derived prior (tenant co-location weights) for
    bootstrapping before any traffic statistics exist. *)

val bootstrap : t -> ?intensity:Wgraph.t -> unit -> unit
(** Lazy mode: run the controller's initial grouping (IniGroup) from the
    given history statistics (default {!default_intensity}) and push the
    group configurations. No-op in OpenFlow mode. *)

val start_flow :
  t -> src:Ids.Host_id.t -> dst:Ids.Host_id.t -> bytes:int -> packets:int -> unit
(** Application-level flow initiation at the source host. *)

val replay : t -> Trace.t -> unit
(** Schedule a whole trace of flow arrivals. *)

val run : t -> until:Time.t -> unit
val run_all : t -> unit

val lazy_controller : t -> Controller.t option
val of_controller : t -> Of_controller.t option
val edge_switch : t -> Ids.Switch_id.t -> Edge_switch.t option
val of_switch : t -> Ids.Switch_id.t -> Of_switch.t option

val live_switches : t -> (Ids.Switch_id.t * Edge_switch.t) list
(** Powered-on edge switches in ascending id order (empty in OpenFlow
    mode). *)

val switch_stats_sum : t -> Edge_switch.stats
(** Aggregate over all edge switches (zeros in OpenFlow mode). *)

val deploy_host : t -> Host.t -> at:Ids.Switch_id.t -> unit
(** Bring a brand-new VM online: add it to the topology and attach it at
    its edge switch (which learns and advertises it). *)

val migrate_host : t -> Ids.Host_id.t -> to_:Ids.Switch_id.t -> unit
(** VM migration: detach at the old switch, move in the topology, attach
    at the new one (driving the live state-dissemination path). *)

(** {1 Failure injection} (lazy mode) *)

val fail_switch : t -> Ids.Switch_id.t -> unit
(** Power the switch off. The controller's wheel detects it, reselects a
    designated switch if needed, and issues a reboot; the switch comes
    back after [params.reboot_delay] and is re-synced. *)

val repair_switch : t -> Ids.Switch_id.t -> unit
(** Power the switch back on (idempotent). The switch sends a power-on
    [Hello] so the controller re-pushes its group configuration even when
    the outage was shorter than failure detection. *)

val fail_control_link : t -> Ids.Switch_id.t -> unit
val repair_control_link : t -> Ids.Switch_id.t -> unit
val fail_peer_link : t -> Ids.Switch_id.t -> Ids.Switch_id.t -> unit
val repair_peer_link : t -> Ids.Switch_id.t -> Ids.Switch_id.t -> unit

val fail_peer_link_directed :
  t -> src:Ids.Switch_id.t -> dst:Ids.Switch_id.t -> unit
(** Break one direction only — the Table I "peer link (up)" vs "(down)"
    distinction. *)

val fail_data_path :
  t -> src:Ids.Switch_id.t -> dst:Ids.Switch_id.t -> notify:bool -> unit
(** Break the one-way underlay path; with [notify], the controller is told
    and installs detour rules (§III-E2). *)

val repair_data_path : t -> src:Ids.Switch_id.t -> dst:Ids.Switch_id.t -> unit

(** {1 Channel loss injection} (lazy mode)

    Seeded Gilbert–Elliott loss on the control and peer channels. The
    per-channel loss streams are sub-streams of the network seed, so runs
    are reproducible regardless of when loss is (re)configured. *)

val set_control_loss : t -> Lazyctrl_openflow.Channel.loss_spec option -> unit
(** Apply (or with [None], clear) a loss model on every switch ↔
    controller channel, both directions. *)

val set_peer_loss : t -> Lazyctrl_openflow.Channel.loss_spec option -> unit
(** Same for every switch ↔ switch peer channel, including channels
    created lazily after this call. *)

(** {1 Aggregate channel and reliability accounting} *)

type link_totals = {
  links_sent : int;
  links_delivered : int;
  links_dropped : int;      (** dropped because the channel was down *)
  links_lost : int;         (** dropped by the random loss model *)
  links_duplicated : int;
  links_bytes_sent : int;
      (** encoded frame bytes offered, all channels (DESIGN.md §13) *)
  links_bytes_delivered : int;  (** frame bytes actually delivered *)
}

val link_stats : t -> link_totals
(** Totals over all control and peer channels. *)

val ctrl_bytes_sent : t -> int
(** Encoded bytes offered on the controller-facing channels only (both
    directions, either plane) — the control-channel load behind the
    bytes/sec series.  Equals the recorder's [total_ctrl_bytes] and the
    tracer's [ctrl_bytes] exactly, by construction. *)

val reliability_stats : t -> Lazyctrl_openflow.Reliable.stats
(** Aggregate over every reliable session in the network — controller-side
    and switch-side. [violations = 0] is the exactly-once invariant. *)
