open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_graph
open Lazyctrl_topo
open Lazyctrl_traffic
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_baseline
open Lazyctrl_metrics
module Prng = Lazyctrl_util.Prng
module Sid = Ids.Switch_id
module Tracer = Lazyctrl_trace.Tracer
module Wire = Lazyctrl_wire.Wire

(* The OpenFlow baseline's channels are §13-framed too, with an empty
   extension table; the lazy plane's channels come from {!Fabric}.  The
   one value-passing exception is the control-link relay detour in
   [send_switch], which models a neighbour hand-off without a channel. *)
let set_unit_codec ch =
  Channel.set_codec ch ~encode:(Wire.encode Wire.unit_ext)
    ~decode:(Wire.decode Wire.unit_ext)

type mode = Lazy | Openflow

type lazy_plane = {
  fabric : Fabric.t;
  controller : Controller.t;
  ctrl_up : Edge_switch.msg Channel.t array;   (* switch -> controller *)
  ctrl_down : Edge_switch.msg Channel.t array; (* controller -> switch *)
  relayed : bool array; (* switch under control-link failover *)
}

type of_plane = {
  of_controller : Of_controller.t;
  of_switches : Of_switch.t array;
  of_ctrl_up : Of_switch.msg Channel.t array;
  of_ctrl_down : Of_switch.msg Channel.t array;
}

type plane = Lazy_plane of lazy_plane | Of_plane of of_plane

type t = {
  params : Params.t;
  engine : Engine.t;
  tracer : Tracer.t;
  topo : Topology.t;
  underlay : Underlay.t;
  recorder : Recorder.t;
  hosts : Host_model.t;
  plane : plane;
}

let engine t = t.engine
let recorder t = t.recorder
let tracer t = t.tracer
let topology t = t.topo
let host_model t = t.hosts
let underlay t = t.underlay

let mode t = match t.plane with Lazy_plane _ -> Lazy | Of_plane _ -> Openflow

(* Frame delivered on a host port: record latency measurements.  The
   rest of a flow's packets hit warm tables, so each costs two host ports
   plus (for a remote destination) one underlay traversal. *)
let record_delivery ~params ~engine ~topo ~recorder = function
  | Host_model.Data_first meta ->
      let lat = Time.diff (Engine.now engine) meta.Host_model.started in
      Recorder.record_first_packet_latency recorder lat;
      if meta.Host_model.packets > 1 then begin
        let two_ports = Time.scale params.Params.host_port_latency 2.0 in
        let local =
          Sid.equal
            (Topology.location topo meta.Host_model.src)
            (Topology.location topo meta.Host_model.dst)
        in
        Recorder.record_fast_path_latency recorder
          ~n:(meta.Host_model.packets - 1)
          (if local then two_ports
           else Time.add two_ports params.Params.underlay_latency)
      end
  | Host_model.Data_duplicate | Host_model.Arp_handled | Host_model.Not_for_host
    ->
      ()

let make_lazy_plane ~params ~controller_config ~tracer ~engine ~topo ~underlay
    ~on_delivery =
  let n = Topology.n_switches topo in
  let ctrl name =
    Array.init n (fun i ->
        Fabric.channel params engine ~latency:params.Params.control_link_latency
          ~loss:params.Params.control_loss (Printf.sprintf name i))
  in
  let ctrl_up = ctrl "ctrl-up-%d" and ctrl_down = ctrl "ctrl-down-%d" in
  let fabric =
    Fabric.create ~tracer ~params ~engine ~topo ~underlay
      ~to_controller:(fun i -> ctrl_up.(i))
      ~on_delivery ()
  in
  let switch i = Fabric.switch fabric (Sid.of_int i) in
  let relayed = Array.make n false in
  let service =
    Service_queue.create engine ~service_time:params.Params.controller_service
  in
  let controller_env =
    {
      Controller.engine;
      send_switch =
        (fun sw msg ->
          let i = Sid.to_int sw in
          if relayed.(i) && not (Channel.is_up ctrl_down.(i)) then
            (* Controller → neighbour over its control link, neighbour →
               switch over the peer link; modelled as the combined
               latency with direct hand-off. *)
            let delay =
              Time.add params.Params.control_link_latency
                params.Params.peer_link_latency
            in
            ignore
              (Engine.schedule engine ~after:delay (fun () ->
                   Edge_switch.handle_controller_message (switch i) msg))
          else ignore (Channel.send ctrl_down.(i) msg));
      reboot_switch =
        (fun sw ->
          ignore
            (Engine.schedule engine ~after:params.Params.reboot_delay (fun () ->
                 Edge_switch.set_up (Fabric.switch fabric sw) true)));
      request_relay =
        (fun sw ~via ->
          relayed.(Sid.to_int sw) <- Option.is_some via;
          Edge_switch.set_control_relay (Fabric.switch fabric sw) via);
      rng = Prng.named (Prng.create params.Params.seed) "controller";
    }
  in
  let controller =
    Controller.create ~tracer controller_env controller_config ~n_switches:n
  in
  for i = 0 to n - 1 do
    Channel.set_receiver ctrl_up.(i) (fun msg ->
        Service_queue.submit service (fun () ->
            Controller.handle_message controller ~from:(Sid.of_int i) msg));
    Channel.set_receiver ctrl_down.(i)
      (Edge_switch.handle_controller_message (switch i))
  done;
  { fabric; controller; ctrl_up; ctrl_down; relayed }

let make_of_plane ~params ~of_config ~engine ~topo ~underlay ~on_delivery =
  let n = Topology.n_switches topo in
  let switches = ref [||] in
  let hosts, deliver_local =
    Fabric.host_side ~params ~engine ~topo ~on_delivery ~from_host:(fun i host pkt ->
        Of_switch.handle_from_host !switches.(i) host pkt)
  in
  let ctrl name =
    Array.init n (fun i ->
        let ch =
          Channel.create ~strict:true engine
            ~latency:params.Params.control_link_latency
            ~name:(Printf.sprintf name i) ()
        in
        set_unit_codec ch;
        ch)
  in
  let ctrl_up = ctrl "of-ctrl-up-%d" and ctrl_down = ctrl "of-ctrl-down-%d" in
  let service =
    Service_queue.create engine ~service_time:params.Params.of_controller_service
  in
  let controller =
    Of_controller.create
      { Of_controller.engine; send_switch =
          (fun sw msg -> ignore (Channel.send ctrl_down.(Sid.to_int sw) msg));
        n_switches = n }
      of_config
  in
  Array.iteri
    (fun i ch ->
      Channel.set_receiver ch (fun msg ->
          Service_queue.submit service (fun () ->
              Of_controller.handle_message controller ~from:(Sid.of_int i) msg)))
    ctrl_up;
  let make_switch i =
    let self = Sid.of_int i in
    let env =
      {
        Of_switch.engine;
        send_controller = (fun msg -> ignore (Channel.send ctrl_up.(i) msg));
        send_underlay = (fun pkt -> ignore (Underlay.send underlay pkt));
        deliver_local;
        underlay_ip = Topology.underlay_ip topo self;
      }
    in
    let sw = Of_switch.create env ~flow_table_capacity:params.Params.flow_table_capacity in
    Underlay.register underlay (Topology.underlay_ip topo self) (fun pkt ->
        Of_switch.handle_underlay sw pkt);
    Channel.set_receiver ctrl_down.(i) (Of_switch.handle_controller_message sw);
    sw
  in
  switches := Array.init n make_switch;
  List.iter
    (fun (h : Host.t) ->
      Of_switch.attach_host !switches.(Sid.to_int (Topology.location topo h.id)) h)
    (Topology.hosts topo);
  ( {
      of_controller = controller;
      of_switches = !switches;
      of_ctrl_up = ctrl_up;
      of_ctrl_down = ctrl_down;
    },
    hosts )

let create ?(params = Params.default)
    ?(controller_config = Controller.default_config)
    ?(of_config = Of_controller.default_config)
    ?(tracer = Tracer.disabled) ~mode ~topo ~horizon () =
  let engine = Engine.create () in
  let underlay =
    Underlay.create engine ~latency:params.Params.underlay_latency ()
  in
  let recorder = Recorder.create engine ~horizon () in
  let on_delivery = record_delivery ~params ~engine ~topo ~recorder in
  let plane, hosts =
    match mode with
    | Lazy ->
        let p =
          make_lazy_plane ~params ~controller_config ~tracer ~engine ~topo
            ~underlay ~on_delivery
        in
        (Lazy_plane p, Fabric.hosts p.fabric)
    | Openflow ->
        let p, hosts =
          make_of_plane ~params ~of_config ~engine ~topo ~underlay ~on_delivery
        in
        (Of_plane p, hosts)
  in
  (* Wire measurement taps. *)
  (* The ctrl-bytes series counts controller-facing channels only (both
     directions); peer links keep their own per-channel byte counters but
     are switch-to-switch load, not controller load. The hook fires once
     per encoded send, at the instant the channel's own [bytes_sent]
     grows, so recorder and tracer totals equal the channel counters
     exactly — the DESIGN.md §13 cross-check. *)
  let tap_ctrl_bytes ch =
    Channel.set_wire_hook ch (fun n ->
        Recorder.on_control_bytes recorder n;
        Tracer.add_ctrl_bytes tracer n)
  in
  (match plane with
  | Lazy_plane p ->
      Array.iter tap_ctrl_bytes p.ctrl_up;
      Array.iter tap_ctrl_bytes p.ctrl_down;
      Controller.set_request_hook p.controller (fun () ->
          Recorder.on_controller_request recorder);
      Controller.set_update_hook p.controller (fun () ->
          Recorder.on_grouping_update recorder)
  | Of_plane p ->
      Array.iter tap_ctrl_bytes p.of_ctrl_up;
      Array.iter tap_ctrl_bytes p.of_ctrl_down;
      Of_controller.set_request_hook p.of_controller (fun () ->
          Recorder.on_controller_request recorder));
  { params; engine; tracer; topo; underlay; recorder; hosts; plane }

(* A placement-derived prior intensity: switches sharing tenants will
   probably exchange traffic proportionally to the co-located VM counts. *)
let default_intensity topo =
  let n = Topology.n_switches topo in
  let b = Wgraph.Builder.create ~n in
  List.iter
    (fun tenant ->
      let sws = Topology.tenant_switches topo tenant in
      let counts =
        List.map
          (fun sw ->
            ( Sid.to_int sw,
              List.length
                (List.filter
                   (fun (h : Host.t) -> Ids.Tenant_id.equal h.tenant tenant)
                   (Topology.hosts_at topo sw)) ))
          sws
      in
      List.iter
        (fun (a, ca) ->
          List.iter
            (fun (b', cb) ->
              if a < b' then
                Wgraph.Builder.add_edge b a b' (Float.of_int (ca * cb)))
            counts)
        counts)
    (Topology.tenants topo);
  Wgraph.Builder.build b

let bootstrap t ?intensity () =
  match t.plane with
  | Of_plane _ -> ()
  | Lazy_plane p ->
      let intensity =
        match intensity with Some g -> g | None -> default_intensity t.topo
      in
      Controller.bootstrap p.controller ~intensity

let start_flow t ~src ~dst ~bytes ~packets =
  let src = Topology.host t.topo src and dst = Topology.host t.topo dst in
  Host_model.start_flow t.hosts ~src ~dst ~bytes ~packets

let replay t trace =
  ignore
    (Replay.start t.engine trace ~on_flow:(fun f ->
         start_flow t ~src:f.Trace.src ~dst:f.Trace.dst ~bytes:f.Trace.bytes
           ~packets:f.Trace.packets))

let run t ~until = Engine.run ~until t.engine
let run_all t = Engine.run t.engine

let lazy_controller t =
  match t.plane with Lazy_plane p -> Some p.controller | Of_plane _ -> None

let of_controller t =
  match t.plane with Of_plane p -> Some p.of_controller | Lazy_plane _ -> None

let edge_switch t sw =
  match t.plane with
  | Lazy_plane p -> Some (Fabric.switch p.fabric sw)
  | Of_plane _ -> None

let of_switch t sw =
  match t.plane with
  | Of_plane p -> Some p.of_switches.(Sid.to_int sw)
  | Lazy_plane _ -> None

let live_switches t =
  match t.plane with
  | Lazy_plane p -> Fabric.live_switches p.fabric
  | Of_plane _ -> []

let switch_stats_sum t =
  match t.plane with
  | Of_plane _ -> Edge_switch.stats_zero
  | Lazy_plane p -> Fabric.switch_stats_sum p.fabric

let deploy_host t host ~at =
  Topology.add_host t.topo host ~at;
  match t.plane with
  | Lazy_plane p -> Edge_switch.attach_host (Fabric.switch p.fabric at) host
  | Of_plane p -> Of_switch.attach_host p.of_switches.(Sid.to_int at) host

let migrate_host t hid ~to_ =
  let host = Topology.host t.topo hid in
  let from = Topology.migrate t.topo hid ~to_ in
  match t.plane with
  | Lazy_plane p ->
      Edge_switch.detach_host (Fabric.switch p.fabric from) hid;
      Edge_switch.attach_host (Fabric.switch p.fabric to_) host
  | Of_plane p ->
      Of_switch.detach_host p.of_switches.(Sid.to_int from) host;
      Of_switch.attach_host p.of_switches.(Sid.to_int to_) host

(* --- failure injection -------------------------------------------------- *)

let with_lazy t f = match t.plane with Lazy_plane p -> f p | Of_plane _ -> ()

let fail_switch t sw = with_lazy t (fun p -> Fabric.fail_switch p.fabric sw)
let repair_switch t sw = with_lazy t (fun p -> Fabric.repair_switch p.fabric sw)

let fail_control_link t sw =
  with_lazy t (fun p ->
      Channel.fail p.ctrl_up.(Sid.to_int sw);
      Channel.fail p.ctrl_down.(Sid.to_int sw))

let repair_control_link t sw =
  with_lazy t (fun p ->
      let i = Sid.to_int sw in
      Channel.repair p.ctrl_up.(i);
      Channel.repair p.ctrl_down.(i);
      p.relayed.(i) <- false;
      Edge_switch.set_control_relay (Fabric.switch p.fabric sw) None)

(* A pair that never talked gets its channel created here, so future
   sends on it drop too. *)
let fail_peer_link_directed t ~src ~dst =
  with_lazy t (fun p -> Channel.fail (Fabric.peer_channel p.fabric ~src ~dst))

let fail_peer_link t a b =
  fail_peer_link_directed t ~src:a ~dst:b;
  fail_peer_link_directed t ~src:b ~dst:a

let repair_peer_link t a b =
  with_lazy t (fun p ->
      Channel.repair (Fabric.peer_channel p.fabric ~src:a ~dst:b);
      Channel.repair (Fabric.peer_channel p.fabric ~src:b ~dst:a))

let fail_data_path t ~src ~dst ~notify =
  Underlay.fail_path t.underlay
    ~src:(Topology.underlay_ip t.topo src)
    ~dst:(Topology.underlay_ip t.topo dst);
  if notify then
    with_lazy t (fun p -> Controller.notify_path_failure p.controller ~src ~dst)

let repair_data_path t ~src ~dst =
  Underlay.repair_path t.underlay
    ~src:(Topology.underlay_ip t.topo src)
    ~dst:(Topology.underlay_ip t.topo dst)

(* --- channel loss injection ---------------------------------------------- *)

let set_control_loss t spec =
  with_lazy t (fun p ->
      Array.iter (Fabric.apply_loss t.params spec) p.ctrl_up;
      Array.iter (Fabric.apply_loss t.params spec) p.ctrl_down)

let set_peer_loss t spec =
  with_lazy t (fun p -> Fabric.set_peer_loss p.fabric spec)

(* --- aggregate channel / reliability accounting --------------------------- *)

type link_totals = {
  links_sent : int;
  links_delivered : int;
  links_dropped : int;
  links_lost : int;
  links_duplicated : int;
  links_bytes_sent : int;
  links_bytes_delivered : int;
}

let link_zero =
  {
    links_sent = 0;
    links_delivered = 0;
    links_dropped = 0;
    links_lost = 0;
    links_duplicated = 0;
    links_bytes_sent = 0;
    links_bytes_delivered = 0;
  }

let link_add acc ch =
  {
    links_sent = acc.links_sent + Channel.sent ch;
    links_delivered = acc.links_delivered + Channel.delivered ch;
    links_dropped = acc.links_dropped + Channel.dropped ch;
    links_lost = acc.links_lost + Channel.lost ch;
    links_duplicated = acc.links_duplicated + Channel.duplicated ch;
    links_bytes_sent = acc.links_bytes_sent + Channel.bytes_sent ch;
    links_bytes_delivered =
      acc.links_bytes_delivered + Channel.bytes_delivered ch;
  }

let link_stats t =
  match t.plane with
  | Lazy_plane p ->
      let acc = Array.fold_left link_add link_zero p.ctrl_up in
      let acc = Array.fold_left link_add acc p.ctrl_down in
      List.fold_left link_add acc (Fabric.peer_channels p.fabric)
  | Of_plane p ->
      let acc = Array.fold_left link_add link_zero p.of_ctrl_up in
      Array.fold_left link_add acc p.of_ctrl_down

(* Bytes sent on the controller-facing channels only — by construction
   equal to the recorder's [total_ctrl_bytes] and the tracer's
   [ctrl_bytes] (the wire hook fires exactly when these counters grow);
   the cross-check test pins the equality. *)
let ctrl_bytes_sent t =
  let sum acc arr =
    Array.fold_left (fun acc ch -> acc + Channel.bytes_sent ch) acc arr
  in
  match t.plane with
  | Lazy_plane p -> sum (sum 0 p.ctrl_up) p.ctrl_down
  | Of_plane p -> sum (sum 0 p.of_ctrl_up) p.of_ctrl_down

let reliability_stats t =
  match t.plane with
  | Of_plane _ -> Reliable.stats_zero
  | Lazy_plane p ->
      Reliable.stats_add
        (Controller.reliable_stats p.controller)
        (Fabric.reliable_stats p.fabric)
