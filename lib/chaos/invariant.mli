(** Convergence invariant monitors.

    Checked at quiescence (all faults repaired, retransmissions drained):

    - every live switch holds a group configuration;
    - the controller's C-LIB row of every live switch equals that switch's
      L-FIB (dead switches' rows are stale by definition and skipped);
    - no Bloom false negative: each live member's G-FIB names every other
      live member of its group as a candidate for all of that member's
      hosts;
    - every {!Lazyctrl_controller.Failover.Monitor} verdict is healthy;
    - no reliable session ever handed a message to application logic twice
      (the transport's own exactly-once audit).

    [check_all] returns the empty list in OpenFlow mode (no lazy-plane
    invariants apply), which [all_ok] treats as passing.

    The per-check cores are exported so planes other than
    {!Lazyctrl_core.Network} — notably the controller-cluster plane — can
    compose the same invariants over their own switch and controller
    inventories. *)

open Lazyctrl_net
open Lazyctrl_core
open Lazyctrl_switch
open Lazyctrl_controller

type report = { name : string; ok : bool; detail : string }

val pp_report : Format.formatter -> report -> unit
val all_ok : report list -> bool

val check_grouped : (Ids.Switch_id.t * Edge_switch.t) list -> report
val check_clib :
  Controller.t -> (Ids.Switch_id.t * Edge_switch.t) list -> report
val check_bloom : (Ids.Switch_id.t * Edge_switch.t) list -> report
val check_monitor : Controller.t -> report

val check_exactly_once_stats : Lazyctrl_openflow.Reliable.stats -> report
(** The transport audit over an already-aggregated stats record — what a
    multi-controller plane sums over all its sessions. *)

val check_all : Network.t -> report list
