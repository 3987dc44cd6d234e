(** End-to-end chaos run: build a lazy-plane network with lossy channels,
    apply background traffic and migrations, inject a seeded fault
    scenario, then poll the convergence invariants until they all hold or
    a settle deadline passes.

    The whole run — placement, traffic, fault schedule, channel loss — is
    derived from [config.seed], so two runs with the same config produce
    byte-identical [fingerprint]s. *)

open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core

type config = {
  seed : int;
  n_switches : int;
  n_tenants : int;
  loss : float;           (** baseline per-message loss on every channel *)
  dup : float;
  reliable : bool;        (** false = the old fire-and-forget state path *)
  spec : Scenario.spec;
  migrations : int;
  flows_per_tenant : int;
  warmup : Time.t;
  settle : Time.t;        (** give-up deadline after the last repair *)
  poll : Time.t;          (** invariant re-check cadence while settling *)
}

val default_config : config
(** 12 switches, 6 tenants, 5% loss + 1% duplication, every fault kind,
    reliable delivery on. *)

type result = {
  events : Fault.event list;
  reports : Invariant.report list;   (** from the final check *)
  converged_after : Time.t option;
      (** time from last repair to all invariants holding; [None] = never *)
  link : Network.link_totals;
  reliability : Reliable.stats;
  switch_stats : Edge_switch.stats;
  controller_stats : Controller.stats option;
  fingerprint : string;
}

val delivery_ratio : Network.link_totals -> float

(** {1 Shared with the controller-cluster harness} *)

val quick_controller_config : bool -> Controller.config
(** Timers tight enough that detection and re-sync fit in simulated
    seconds; the flag is [reliable_state]. *)

val placement_spec :
  n_switches:int -> n_tenants:int -> Lazyctrl_topo.Placement.spec

val lossy_params :
  seed:int -> loss:float -> dup:float -> reliable:bool ->
  Channel.loss_spec option * Params.t
(** The baseline loss model ([None] if lossless) and parameters carrying
    it on control and peer channels, with switch [reliable_state]. *)

val settle :
  engine:Lazyctrl_sim.Engine.t -> run:(until:Time.t -> unit) ->
  check:(unit -> Invariant.report list) -> repair_done:Time.t ->
  settle:Time.t -> poll:Time.t -> Invariant.report list * Time.t option
(** Run just past [repair_done], then [check] every [poll] until all
    reports hold (returning the time since [repair_done]) or [settle]
    has elapsed. *)

val fingerprint :
  events:Fault.event list -> reports:Invariant.report list ->
  converged_after:Time.t option -> link:Network.link_totals option ->
  reliability:Reliable.stats -> switch_stats:Edge_switch.stats ->
  extra:string -> at:Time.t -> string
(** Event, invariant, convergence, link, reliable and switch lines, then
    the plane's own [extra] lines, then the clock. *)

val run : ?tracer:Lazyctrl_trace.Tracer.t -> config -> result
(** [tracer] (default disabled) flight-records the run: it is threaded
    into the network planes and additionally receives a [Chaos_fault]
    event at each fault's onset and repair time. *)
