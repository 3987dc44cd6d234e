open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core
module Prng = Lazyctrl_util.Prng
module Placement = Lazyctrl_topo.Placement
module Topology = Lazyctrl_topo.Topology
module Sid = Ids.Switch_id
module Tracer = Lazyctrl_trace.Tracer
module Tev = Lazyctrl_trace.Event

type config = {
  seed : int;
  n_switches : int;
  n_tenants : int;
  loss : float;           (* baseline per-message loss on every channel *)
  dup : float;
  reliable : bool;
  spec : Scenario.spec;
  migrations : int;
  flows_per_tenant : int;
  warmup : Time.t;
  settle : Time.t;
  poll : Time.t;
}

let default_config =
  {
    seed = 42;
    n_switches = 12;
    n_tenants = 6;
    loss = 0.05;
    dup = 0.01;
    reliable = true;
    spec = Scenario.default;
    migrations = 4;
    flows_per_tenant = 2;
    warmup = Time.of_sec 20;
    settle = Time.of_min 2;
    poll = Time.of_sec 2;
  }

(* Tight timers so detection and re-sync happen within simulated seconds. *)
let quick_controller_config reliable =
  {
    Controller.default_config with
    Controller.group_size_limit = 6;
    sync_period = Time.of_sec 10;
    keepalive_period = Time.of_sec 2;
    echo_period = Time.of_sec 5;
    echo_timeout = Time.of_sec 12;
    daemon_period = Time.of_sec 5;
    incremental_updates = false;
    reliable_state = reliable;
  }

type result = {
  events : Fault.event list;
  reports : Invariant.report list;
  converged_after : Time.t option;
  link : Network.link_totals;
  reliability : Reliable.stats;
  switch_stats : Edge_switch.stats;
  controller_stats : Controller.stats option;
  fingerprint : string;
}

let delivery_ratio (l : Network.link_totals) =
  if l.Network.links_sent = 0 then 1.0
  else float_of_int l.Network.links_delivered /. float_of_int l.Network.links_sent

let fingerprint ~events ~reports ~converged_after ~link ~reliability
    ~switch_stats ~extra ~at =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter (fun e -> add "event %s\n" (Format.asprintf "%a" Fault.pp_event e)) events;
  List.iter
    (fun r -> add "invariant %s\n" (Format.asprintf "%a" Invariant.pp_report r))
    reports;
  (match converged_after with
  | Some t -> add "converged_after %d\n" (Time.to_ns t)
  | None -> add "converged_after none\n");
  Option.iter
    (fun (l : Network.link_totals) ->
      add "link sent=%d delivered=%d dropped=%d lost=%d duplicated=%d\n"
        l.links_sent l.links_delivered l.links_dropped l.links_lost
        l.links_duplicated)
    link;
  let r = reliability in
  add
    "reliable data=%d retrans=%d acks=%d delivered=%d dups=%d stale=%d tail=%d \
     give_ups=%d violations=%d\n"
    r.Reliable.data_sent r.Reliable.retransmits r.Reliable.acks_sent
    r.Reliable.delivered r.Reliable.dups_ignored r.Reliable.stale_dropped
    r.Reliable.tail_dropped r.Reliable.give_ups r.Reliable.violations;
  let s = switch_stats in
  add
    "switch from_hosts=%d delivered=%d encap=%d ft=%d lfib=%d gfib=%d gdup=%d \
     punted=%d fp=%d arp_l=%d arp_g=%d adverts=%d ka=%d miss_buf=%d miss_rep=%d\n"
    s.Edge_switch.packets_from_hosts s.Edge_switch.packets_delivered
    s.Edge_switch.encap_sent s.Edge_switch.flow_table_handled
    s.Edge_switch.lfib_handled s.Edge_switch.gfib_handled
    s.Edge_switch.gfib_duplicates s.Edge_switch.punted s.Edge_switch.fp_drops
    s.Edge_switch.arp_local_answered s.Edge_switch.arp_group_escalated
    s.Edge_switch.adverts_sent s.Edge_switch.keepalives_sent
    s.Edge_switch.misses_buffered s.Edge_switch.misses_replayed;
  Buffer.add_string b extra;
  add "clock %d\n" (Time.to_ns at);
  Buffer.contents b

let controller_line (c : Controller.stats) =
  Printf.sprintf
    "controller requests=%d packet_ins=%d arp_esc=%d reports=%d alarms=%d \
     fmods=%d pouts=%d relays=%d floods=%d updates=%d regroups=%d \
     failovers=%d preloads=%d\n"
    c.requests c.packet_ins c.arp_escalations c.state_reports c.ring_alarms
    c.flow_mods_sent c.packet_outs_sent c.arp_relays c.floods
    c.grouping_updates c.full_regroups c.failovers_handled c.preloaded_rules

let placement_spec ~n_switches ~n_tenants =
  {
    Placement.n_switches;
    n_tenants;
    tenant_size_min = 8;
    tenant_size_max = 16;
    racks_per_tenant = 3;
    stray_fraction = 0.05;
  }

let lossy_params ~seed ~loss ~dup ~reliable =
  let baseline =
    if loss > 0.0 || dup > 0.0 then Some (Channel.uniform_loss ~dup loss)
    else None
  in
  ( baseline,
    {
      (Params.with_seed seed Params.default) with
      Params.control_loss = baseline;
      peer_loss = baseline;
      switch_config =
        { Edge_switch.default_config with Edge_switch.reliable_state = reliable };
    } )

let settle ~engine ~run ~check ~repair_done ~settle ~poll =
  run ~until:(Time.add repair_done (Time.of_ms 1));
  let deadline = Time.add repair_done settle in
  let rec loop () =
    let reports = check () in
    if Invariant.all_ok reports then
      (reports, Some (Time.diff (Engine.now engine) repair_done))
    else if Time.(Engine.now engine >= deadline) then (reports, None)
    else begin
      run ~until:(Time.add (Engine.now engine) poll);
      loop ()
    end
  in
  loop ()

let run ?(tracer = Tracer.disabled) cfg =
  let rng = Prng.create cfg.seed in
  let topo =
    Placement.generate ~rng:(Prng.named rng "topo")
      (placement_spec ~n_switches:cfg.n_switches ~n_tenants:cfg.n_tenants)
  in
  let baseline, params =
    lossy_params ~seed:cfg.seed ~loss:cfg.loss ~dup:cfg.dup
      ~reliable:cfg.reliable
  in
  let net =
    Network.create ~params
      ~controller_config:(quick_controller_config cfg.reliable)
      ~tracer ~mode:Network.Lazy ~topo ~horizon:(Time.of_hour 2) ()
  in
  let engine = Network.engine net in
  Network.bootstrap net ();
  Network.run net ~until:cfg.warmup;
  (* Background traffic so the data plane has something to lose. *)
  let flow_rng = Prng.named rng "flows" in
  List.iter
    (fun tid ->
      let hosts = Array.of_list (Topology.tenant_hosts topo tid) in
      if Array.length hosts >= 2 then
        for _ = 1 to cfg.flows_per_tenant do
          let a = Prng.choose flow_rng hosts and b = Prng.choose flow_rng hosts in
          if not (Ids.Host_id.equal a.Host.id b.Host.id) then
            Network.start_flow net ~src:a.Host.id ~dst:b.Host.id ~bytes:20_000
              ~packets:10
        done)
    (Topology.tenants topo);
  (* Seeded VM migrations interleaved with the fault window, driving the
     state-dissemination path while it is under attack. *)
  let mig_rng = Prng.named rng "migrations" in
  let all_hosts = Array.of_list (Topology.hosts topo) in
  let window_ms = Time.to_ns cfg.spec.Scenario.window / 1_000_000 in
  for _ = 1 to cfg.migrations do
    let h = Prng.choose mig_rng all_hosts in
    let dst = Sid.of_int (Prng.int mig_rng cfg.n_switches) in
    let after = Time.of_ms (Prng.int mig_rng (max 1 window_ms)) in
    ignore
      (Engine.schedule engine ~after (fun () ->
           if not (Sid.equal (Topology.location topo h.Host.id) dst) then
             Network.migrate_host net h.Host.id ~to_:dst))
  done;
  let events =
    Scenario.generate
      ~rng:(Prng.named rng "faults")
      ~n_switches:cfg.n_switches cfg.spec
  in
  Scenario.inject net cfg.spec ~baseline events;
  (* Mirror every fault's onset and repair into the flight recorder, at
     the same engine times the scenario injector uses (offsets from the
     injection instant). *)
  if Tracer.enabled tracer then begin
    let emit_fault e phase =
      Tracer.emit tracer ~now:(Engine.now engine)
        ~switch:(Sid.to_int e.Fault.primary)
        (Tev.Chaos_fault { fault = Fault.kind_label e.Fault.kind; phase })
    in
    List.iter
      (fun e ->
        ignore
          (Engine.schedule engine ~after:e.Fault.at (fun () ->
               emit_fault e "onset"));
        ignore
          (Engine.schedule engine ~after:(Fault.repair_at e) (fun () ->
               emit_fault e "repair")))
      events
  end;
  let repair_done = Time.add (Engine.now engine) (Scenario.last_repair events) in
  let reports, converged_after =
    settle ~engine ~run:(Network.run net)
      ~check:(fun () -> Invariant.check_all net)
      ~repair_done ~settle:cfg.settle ~poll:cfg.poll
  in
  let link = Network.link_stats net in
  let reliability = Network.reliability_stats net in
  let switch_stats = Network.switch_stats_sum net in
  let controller_stats =
    Option.map Controller.stats (Network.lazy_controller net)
  in
  let fingerprint =
    fingerprint ~events ~reports ~converged_after ~link:(Some link)
      ~reliability ~switch_stats
      ~extra:(Option.fold ~none:"" ~some:controller_line controller_stats)
      ~at:(Engine.now engine)
  in
  {
    events;
    reports;
    converged_after;
    link;
    reliability;
    switch_stats;
    controller_stats;
    fingerprint;
  }
