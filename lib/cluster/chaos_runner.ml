open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core
open Lazyctrl_chaos
module Prng = Lazyctrl_util.Prng
module Placement = Lazyctrl_topo.Placement
module Topology = Lazyctrl_topo.Topology
module Sid = Ids.Switch_id
module Gid = Ids.Group_id

type config = {
  seed : int;
  n_members : int;
  n_switches : int;
  n_tenants : int;
  loss : float;
  dup : float;
  spec : Scenario.spec;
  flows_per_tenant : int;
  warmup : Time.t;
  settle : Time.t;
  poll : Time.t;
}

let default_config =
  {
    seed = 42;
    n_members = 3;
    n_switches = 16;
    n_tenants = 6;
    loss = 0.0;
    dup = 0.0;
    spec =
      {
        Scenario.default with
        Scenario.kinds = Fault.cluster_kinds;
        n_faults = 4;
        window = Time.of_sec 40;
        min_duration = Time.of_sec 8;
        max_duration = Time.of_sec 15;
      };
    flows_per_tenant = 3;
    warmup = Time.of_sec 30;
    settle = Time.of_min 3;
    poll = Time.of_sec 2;
  }

(* Small groups so each of the three members owns several, giving kills
   and handoffs something to move; the single-plane harness's timers, so
   detection, probing and re-homing fit in simulated seconds. *)
let cluster_controller_config =
  { (Runner.quick_controller_config true) with Controller.group_size_limit = 4 }

type result = {
  events : Fault.event list;
  reports : Invariant.report list;
  converged_after : Time.t option;
  reliability : Reliable.stats;
  switch_stats : Edge_switch.stats;
  member_stats : Member.stats;
  flows_started : int;
  flows_delivered : int;
  resolutions_failed : int;
  involvement : float;
  fingerprint : string;
}

(* --- cluster-specific invariants ----------------------------------------- *)

let check_homed plane live =
  let alive = Plane.alive_members plane in
  let bad =
    List.filter_map
      (fun (sid, es) ->
        let k = Plane.uplink_of plane sid in
        let master_alive = List.mem k alive in
        let configured =
          master_alive
          && Option.is_some
               (Controller.group_config_of (Plane.controller plane k) sid)
        in
        let term_ok = Edge_switch.master_term es = Plane.term_of plane sid in
        if master_alive && configured && term_ok then None
        else
          Some
            (Format.asprintf "%a@c%d%s%s%s" Sid.pp sid k
               (if master_alive then "" else ":dead-master")
               (if configured || not master_alive then "" else ":unconfigured")
               (if term_ok then "" else ":stale-term")))
      live
  in
  {
    Invariant.name = "homed";
    ok = List.is_empty bad;
    detail =
      (if List.is_empty bad then
         Printf.sprintf "%d live switches mastered by live, configured members"
           (List.length live)
       else String.concat " " bad);
  }

let check_disjoint plane =
  let seen = Hashtbl.create 16 in
  let dups = ref [] in
  List.iter
    (fun k ->
      List.iter
        (fun (g, _) ->
          match Hashtbl.find_opt seen (Gid.to_int g) with
          | Some j ->
              dups := Format.asprintf "%a@c%d+c%d" Gid.pp g j k :: !dups
          | None -> Hashtbl.replace seen (Gid.to_int g) k)
        (Member.owned (Plane.member plane k)))
    (Plane.alive_members plane);
  let dups = List.rev !dups in
  {
    Invariant.name = "disjoint-ownership";
    ok = List.is_empty dups;
    detail =
      (if List.is_empty dups then
         Printf.sprintf "%d groups, each mastered by one alive member"
           (Hashtbl.length seen)
       else String.concat " " dups);
  }

let check_all plane =
  let live = Plane.live_switches plane in
  let alive = Plane.alive_members plane in
  let per_member =
    List.concat_map
      (fun k ->
        let c = Plane.controller plane k in
        [ Invariant.check_clib c live; Invariant.check_monitor c ])
      alive
  in
  [ Invariant.check_grouped live; Invariant.check_bloom live ]
  @ per_member
  @ [
      Invariant.check_exactly_once_stats (Plane.reliability_stats plane);
      check_homed plane live;
      check_disjoint plane;
    ]

(* --- fault injection over the plane -------------------------------------- *)

let inject plane cfg ~baseline events =
  let engine = Plane.engine plane in
  let m = Plane.n_members plane in
  let start_burst, end_burst =
    Scenario.storms ~burst:cfg.spec.Scenario.burst ~baseline
      ~set_loss:(fun spec ->
        Plane.set_control_loss plane spec;
        Plane.set_peer_loss plane spec)
  in
  List.iter
    (fun (e : Fault.event) ->
      (* Controller faults reduce the drawn switch to a member index. *)
      let target = Sid.to_int e.primary mod m in
      let fail, repair =
        match e.kind with
        | Fault.Controller_kill ->
            ( (fun () -> Plane.kill_member plane target),
              fun () -> Plane.revive_member plane target )
        | Fault.Controller_partition ->
            ( (fun () -> Plane.partition_member plane target),
              fun () -> Plane.heal_member plane target )
        | Fault.Switch_off ->
            ( (fun () -> Plane.fail_switch plane e.primary),
              fun () -> Plane.repair_switch plane e.primary )
        | Fault.Burst_loss -> (start_burst, end_burst)
        | Fault.Control_link | Fault.Peer_link | Fault.Data_path ->
            (* not in the cluster vocabulary; inert if a caller asks *)
            ((fun () -> ()), fun () -> ())
      in
      ignore (Engine.schedule engine ~after:e.Fault.at fail);
      ignore (Engine.schedule engine ~after:(Fault.repair_at e) repair))
    events

(* --- the run -------------------------------------------------------------- *)

let run cfg =
  let rng = Prng.create cfg.seed in
  let topo =
    Placement.generate ~rng:(Prng.named rng "topo")
      (Runner.placement_spec ~n_switches:cfg.n_switches ~n_tenants:cfg.n_tenants)
  in
  let baseline, params =
    Runner.lossy_params ~seed:cfg.seed ~loss:cfg.loss ~dup:cfg.dup
      ~reliable:true
  in
  let plane =
    Plane.create ~params ~controller_config:cluster_controller_config
      ~n_members:cfg.n_members ~topo ()
  in
  let engine = Plane.engine plane in
  Plane.bootstrap plane;
  Plane.run plane ~until:cfg.warmup;
  (* Tenant flows at seeded offsets across the fault window, so kills and
     partitions land while traffic is resolving and punting. *)
  let flow_rng = Prng.named rng "flows" in
  let window_ms = Time.to_ns cfg.spec.Scenario.window / 1_000_000 in
  List.iter
    (fun tid ->
      let hosts = Array.of_list (Topology.tenant_hosts topo tid) in
      if Array.length hosts >= 2 then
        for _ = 1 to cfg.flows_per_tenant do
          let a = Prng.choose flow_rng hosts and b = Prng.choose flow_rng hosts in
          let after = Time.of_ms (Prng.int flow_rng (max 1 window_ms)) in
          if not (Ids.Host_id.equal a.Host.id b.Host.id) then
            ignore
              (Engine.schedule engine ~after (fun () ->
                   Plane.start_flow plane ~src:a.Host.id ~dst:b.Host.id
                     ~bytes:20_000 ~packets:10))
        done)
    (Topology.tenants topo);
  let events =
    Scenario.generate
      ~rng:(Prng.named rng "faults")
      ~n_switches:cfg.n_switches cfg.spec
  in
  inject plane cfg ~baseline events;
  (* Settle only after both the last repair and the flow window have
     passed — a fault-free scenario must still see its traffic. *)
  let repair_done =
    Time.add (Engine.now engine)
      (Time.max (Scenario.last_repair events) cfg.spec.Scenario.window)
  in
  let reports, converged_after =
    Runner.settle ~engine ~run:(Plane.run plane)
      ~check:(fun () -> check_all plane)
      ~repair_done ~settle:cfg.settle ~poll:cfg.poll
  in
  let reliability = Plane.reliability_stats plane in
  let switch_stats = Plane.switch_stats_sum plane in
  let member_stats = Plane.member_stats_sum plane in
  let hosts = Plane.host_model plane in
  let flows_started = Host_model.flows_started hosts in
  let flows_delivered = Host_model.flows_delivered hosts in
  let resolutions_failed = Host_model.resolutions_failed hosts in
  let s = switch_stats in
  let datapath =
    s.Edge_switch.flow_table_handled + s.Edge_switch.lfib_handled
    + s.Edge_switch.gfib_handled + s.Edge_switch.punted
  in
  let involvement =
    float_of_int s.Edge_switch.punted /. float_of_int (max 1 datapath)
  in
  let m = member_stats in
  let extra =
    Printf.sprintf
      "member hellos=%d rehomes=%d adoptions=%d releases=%d handoffs=%d \
       deaths=%d revivals=%d ctrl_failures=%d\n\
       flows started=%d delivered=%d unresolved=%d\n"
      m.Member.hellos_sent m.Member.rehomes_sent m.Member.adoptions
      m.Member.releases m.Member.handoffs_offered m.Member.peer_deaths
      m.Member.peer_revivals m.Member.controller_failure_verdicts flows_started
      flows_delivered resolutions_failed
  in
  let fingerprint =
    Runner.fingerprint ~events ~reports ~converged_after ~link:None
      ~reliability ~switch_stats ~extra ~at:(Engine.now engine)
  in
  {
    events;
    reports;
    converged_after;
    reliability;
    switch_stats;
    member_stats;
    flows_started;
    flows_delivered;
    resolutions_failed;
    involvement;
    fingerprint;
  }
