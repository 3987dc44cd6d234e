(* The benchmark's workloads, and what one simulated instance of a
   workload counts.

   A workload is a topology spec, a control plane and a flow rate.  One
   benchmark run simulates [instances] independent instances of it: the
   run's seed derives each instance's seed, and the instance seed picks
   the placement and the trace.  Several instances per run are needed
   because one instance's figures swing with its seed (how many
   regroups its traffic triggers, which tenant pairs are hot); their
   aggregate is what stays put from seed to seed.

   Inputs are made with the public generators only
   ([Placement.generate], [Gen.real_like], [Analysis.switch_intensity])
   and the network is driven through [Network] alone, so the benchmark
   measures what a user of the library runs. *)

open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_traffic
open Lazyctrl_core
module Prng = Lazyctrl_util.Prng
module Clock = Lazyctrl_perf.Clock
module Edge_switch = Lazyctrl_switch.Edge_switch
module Controller = Lazyctrl_controller.Controller
module Of_controller = Lazyctrl_baseline.Of_controller
module Of_switch = Lazyctrl_baseline.Of_switch
module Flow_table = Lazyctrl_openflow.Flow_table
module Buffer_pool = Lazyctrl_openflow.Buffer_pool
module Reliable = Lazyctrl_openflow.Reliable
module Recorder = Lazyctrl_metrics.Recorder

type t = {
  name : string;
  mode : Network.mode;
  placement : Placement.spec;
  flows : int;  (** flows per instance *)
  traffic : Time.t;  (** flow arrivals fall in [\[0, traffic)] *)
  drain : Time.t;
      (** simulated time run past the traffic window, so the last flows
          to arrive can complete and a missing delivery is a real loss *)
  instances : int;  (** independent instances simulated per run *)
}

(* The topology [lazyctrl simulate] uses by default. *)
let cli_topology =
  {
    Placement.n_switches = 68;
    n_tenants = 30;
    tenant_size_min = 20;
    tenant_size_max = 100;
    racks_per_tenant = 4;
    stray_fraction = 0.05;
  }

let all =
  [
    (* Paper scale with light traffic: periodic keep-alive, echo, sync
       and ring traffic plus the regroups the flows trigger — the write
       side of the control plane.  10k flows rather than fewer: with 1k
       or 5k flows an instance's regroup count and mean latency swing
       two- to fivefold with the seed, with 10k they vary by about 15%,
       and the background still dominates the run. *)
    {
      name = "quiet-272";
      mode = Network.Lazy;
      placement = Placement.default;
      flows = 10_000;
      traffic = Time.of_hour 1;
      drain = Time.of_min 1;
      instances = 4;
    };
    (* The read side: L-FIB/G-FIB/Bloom datapath, ARP, host model and
       packet-ins on the CLI-default topology.  An instance's host time
       and control bytes follow how many regroups its traffic triggers
       (3 to 10 an hour, each pushing up to 80k preloaded flow mods), so
       they swing by about 30% from seed to seed at any flow rate; many
       25k-flow instances average that out in less host time than a few
       100k-flow ones. *)
    {
      name = "busy-68";
      mode = Network.Lazy;
      placement = cli_topology;
      flows = 25_000;
      traffic = Time.of_hour 1;
      drain = Time.of_min 1;
      instances = 14;
    };
    (* The OpenFlow comparison plane (the Fig. 7/9 baseline): engine,
       channel and wire codec per packet, no background timers. *)
    {
      name = "openflow-68";
      mode = Network.Openflow;
      placement = cli_topology;
      flows = 20_000;
      traffic = Time.of_hour 1;
      drain = Time.of_min 1;
      instances = 4;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The same workload shrunk to run in a fraction of a second: the smoke
   test's size.  [Gen.real_like] spreads a trace over whole hours, so the
   traffic window stays an hour. *)
let tiny w =
  {
    w with
    placement = { w.placement with n_switches = 12; n_tenants = 4 };
    flows = max 40 (w.flows / 500);
    instances = 2;
  }

let horizon w = Time.add w.traffic w.drain
let sim_seconds w = Time.to_float_sec (horizon w)

(* Instance 0 of seed [s] is exactly the input of
   [lazyctrl simulate --seed s]; further instances step the seed by a
   stride wider than any seed range a caller sweeps. *)
let instance_seed ~seed i = seed + (1_000_003 * i)

let seconds_since t0 = Float.of_int (Clock.elapsed_ns ~since:t0) *. 1e-9

type setup = {
  net : Network.t;
  trace : Trace.t;
  spans : (string * float) list;  (** set-up phase -> host seconds *)
}

let setup ?tracer w ~seed =
  let spans = ref [] in
  let span name f =
    let t0 = Clock.now_ns () in
    let r = f () in
    spans := (name, seconds_since t0) :: !spans;
    r
  in
  let topo =
    span "topo.generate_s" (fun () ->
        Placement.generate ~rng:(Prng.create seed) w.placement)
  in
  let trace =
    span "traffic.gen_s" (fun () ->
        Gen.real_like
          ~rng:(Prng.create (seed + 1))
          ~topo ~n_flows:w.flows ~duration:w.traffic ())
  in
  let net =
    span "core.create_s" (fun () ->
        Network.create ?tracer ~mode:w.mode ~topo ~horizon:(horizon w) ())
  in
  let intensity =
    span "traffic.intensity_s" (fun () ->
        match w.mode with
        | Network.Lazy -> Some (Analysis.switch_intensity ~topo trace)
        | Network.Openflow -> None)
  in
  span "grouping.bootstrap_s" (fun () ->
      Option.iter (fun intensity -> Network.bootstrap net ~intensity ()) intensity);
  span "core.replay_s" (fun () -> Network.replay net trace);
  { net; trace; spans = List.rev !spans }

let setup_seconds s = List.fold_left (fun acc (_, v) -> acc +. v) 0. s.spans

(* --- counters ------------------------------------------------------------- *)

let ratio a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b

let fold_switches net f init =
  List.fold_left f init (Topology.switches (Network.topology net))

let flow_table_stats net =
  let add (acc : Flow_table.stats) t =
    let s = Flow_table.stats t in
    {
      Flow_table.lookups = acc.lookups + s.lookups;
      hits = acc.hits + s.hits;
      installs = acc.installs + s.installs;
      evictions = acc.evictions + s.evictions;
      expiries = acc.expiries + s.expiries;
    }
  in
  fold_switches net
    (fun acc sid ->
      match (Network.edge_switch net sid, Network.of_switch net sid) with
      | Some sw, _ -> add acc (Edge_switch.flow_table sw)
      | None, Some sw -> add acc (Of_switch.flow_table sw)
      | None, None -> acc)
    { Flow_table.lookups = 0; hits = 0; installs = 0; evictions = 0; expiries = 0 }

let buffer_pool_stats net =
  fold_switches net
    (fun (stored, full) sid ->
      let s =
        match (Network.edge_switch net sid, Network.of_switch net sid) with
        | Some sw, _ -> Some (Edge_switch.buffer_stats sw)
        | None, Some sw -> Some (Of_switch.buffer_stats sw)
        | None, None -> None
      in
      match s with
      | Some s -> (stored + s.Buffer_pool.stored, full + s.Buffer_pool.full_fallbacks)
      | None -> (stored, full))
    (0, 0)

(* Every simulated counter the benchmark reads, by metric name.  All are
   deterministic for an instance seed, so the checks compare them across
   repeated, sliced and traced runs of one instance. *)
let counters w s =
  let net = s.net in
  let i n v = (n, Float.of_int v) in
  let ft = flow_table_stats net in
  let bp_stored, bp_full = buffer_pool_stats net in
  let sw = Network.switch_stats_sum net in
  let links = Network.link_stats net in
  let rel = Network.reliability_stats net in
  let hm = Network.host_model net in
  let rc = Network.recorder net in
  let c = Option.map Controller.stats (Network.lazy_controller net) in
  let cs f = Option.fold ~none:0 ~some:f c in
  let oc = Option.map Of_controller.stats (Network.of_controller net) in
  let ocs f = Option.fold ~none:0 ~some:f oc in
  let sim_s = sim_seconds w in
  let fast =
    sw.Edge_switch.lfib_handled + sw.gfib_handled + sw.flow_table_handled
  in
  let lat = Recorder.latency_ms_series rc in
  let arrived = Trace.n_flows s.trace in
  let delivered = Host_model.flows_delivered hm in
  [
    i "traffic.flows" (Trace.n_flows s.trace);
    i "sim.events" (Engine.events_processed (Network.engine net));
    i "channel.frames_sent" links.Network.links_sent;
    i "channel.frames_delivered" links.links_delivered;
    i "channel.bytes_sent" links.links_bytes_sent;
    i "channel.frames_dropped" (links.links_dropped + links.links_lost);
    ("wire.bytes_per_frame", ratio links.links_bytes_sent links.links_sent);
    i "switch.packets_from_hosts" sw.packets_from_hosts;
    i "switch.lfib_handled" sw.lfib_handled;
    i "switch.gfib_handled" sw.gfib_handled;
    i "switch.flow_table_handled" sw.flow_table_handled;
    i "switch.punted" sw.punted;
    ("switch.fast_path_share", ratio fast sw.packets_from_hosts);
    i "switch.gfib_fp_drops" sw.fp_drops;
    i "switch.gfib_duplicates" sw.gfib_duplicates;
    i "switch.keepalives_sent" sw.keepalives_sent;
    i "switch.adverts_sent" sw.adverts_sent;
    i "switch.buffer_pool.stored" bp_stored;
    i "switch.buffer_pool.full_fallbacks" bp_full;
    i "reliable.data_sent" rel.Reliable.data_sent;
    i "reliable.acks_sent" rel.acks_sent;
    i "reliable.retransmits" rel.retransmits;
    i "reliable.payload_bytes" rel.payload_bytes;
    i "reliable.violations" rel.violations;
    i "flow_table.lookups" ft.lookups;
    ("flow_table.hit_share", ratio ft.hits ft.lookups);
    i "flow_table.installs" ft.installs;
    i "flow_table.evictions" ft.evictions;
    i "controller.requests" (cs (fun s -> s.Controller.requests));
    i "controller.packet_ins" (cs (fun s -> s.packet_ins));
    i "controller.arp_escalations" (cs (fun s -> s.arp_escalations));
    i "controller.state_reports" (cs (fun s -> s.state_reports));
    i "controller.flow_mods_sent" (cs (fun s -> s.flow_mods_sent));
    i "controller.packet_outs_sent" (cs (fun s -> s.packet_outs_sent));
    i "controller.buffer_outs_sent" (cs (fun s -> s.buffer_outs_sent));
    i "controller.grouping_updates" (cs (fun s -> s.grouping_updates));
    i "controller.full_regroups" (cs (fun s -> s.full_regroups));
    i "of_controller.packet_ins" (ocs (fun s -> s.Of_controller.packet_ins));
    i "of_controller.flow_mods_sent" (ocs (fun s -> s.flow_mods_sent));
    i "of_controller.packet_outs_sent" (ocs (fun s -> s.packet_outs_sent));
    i "of_controller.buffer_outs_sent" (ocs (fun s -> s.buffer_outs_sent));
    i "of_controller.floods" (ocs (fun s -> s.floods));
    i "host_model.flows_started" (Host_model.flows_started hm);
    i "host_model.flows_delivered" delivered;
    ("host_model.flow_loss_share", ratio (arrived - delivered) arrived);
    i "host_model.arp_requests_sent" (Host_model.arp_requests_sent hm);
    i "host_model.resolutions_failed" (Host_model.resolutions_failed hm);
    i "host_model.pending_resolutions" (Host_model.pending_resolutions hm);
    i "recorder.requests" (Recorder.total_requests rc);
    i "recorder.ctrl_bytes" (Recorder.total_ctrl_bytes rc);
    i "recorder.buckets" (Recorder.n_buckets rc);
    i "network.ctrl_bytes_sent" (Network.ctrl_bytes_sent net);
    ("ctrl_req_per_sim_s", Float.of_int (Recorder.total_requests rc) /. sim_s);
    ("ctrl_bytes_per_sim_s", Float.of_int (Recorder.total_ctrl_bytes rc) /. sim_s);
    ("fwd_latency_ms", if Array.length lat = 0 then 0. else lat.(0));
  ]

(* The output checks one instance's counters must pass; each failure is
   a message.  A flow whose ARP resolution is given up is never started,
   so losses are counted against the trace's arrivals. *)
let check w s counters =
  let get n = List.assoc n counters in
  let fails = ref [] in
  let expect ok msg = if not ok then fails := msg :: !fails in
  let n = Trace.n_flows s.trace in
  let last = (Trace.flow s.trace (n - 1)).Trace.time in
  expect
    Time.(last < w.traffic)
    (Printf.sprintf "%s: the last flow arrives at %.0f s, after the traffic window"
       w.name (Time.to_float_sec last));
  expect
    (Float.equal (get "host_model.pending_resolutions") 0.)
    (Printf.sprintf "%s: %.0f flows still wait for ARP at the horizon" w.name
       (get "host_model.pending_resolutions"));
  expect
    (get "host_model.flows_delivered" <= get "host_model.flows_started"
    && get "host_model.flows_started" <= get "traffic.flows")
    (w.name ^ ": more flows started or delivered than arrived");
  expect
    (Float.equal (get "reliable.violations") 0.)
    (Printf.sprintf "%s: %.0f reliable-delivery violations" w.name
       (get "reliable.violations"));
  expect
    (Float.equal (get "network.ctrl_bytes_sent") (get "recorder.ctrl_bytes"))
    (Printf.sprintf
       "%s: Network.ctrl_bytes_sent %.0f <> Recorder.total_ctrl_bytes %.0f"
       w.name (get "network.ctrl_bytes_sent") (get "recorder.ctrl_bytes"));
  (* One latency bucket spans the whole run, so its mean is the run's. *)
  expect
    (Float.equal (get "recorder.buckets") 1.)
    (w.name ^ ": the run spans more than one recorder bucket");
  List.rev !fails
