open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_openflow
open Lazyctrl_switch
module Prng = Lazyctrl_util.Prng
module Det = Lazyctrl_util.Det
module Sid = Ids.Switch_id
module Tracer = Lazyctrl_trace.Tracer
module Wire = Lazyctrl_wire.Wire

(* Every switch-facing channel carries real bytes: messages are encoded
   through the DESIGN.md §13 wire format at send and decoded back at
   delivery, so the channels' byte counters (and the bytes/sec series
   fed from them) measure the actual frames, not estimates. *)
let set_proto_codec ch =
  Channel.set_codec ch ~encode:(Wire.encode Proto.wire_ext)
    ~decode:(Wire.decode Proto.wire_ext)

(* Attach (or clear) a loss model; the sub-stream is keyed by the channel
   name, so the draw sequence of one channel never depends on another. *)
let apply_loss params spec ch =
  match spec with
  | None -> Channel.clear_loss ch
  | Some spec ->
      let streams = Prng.named (Prng.create params.Params.seed) "channel-loss" in
      Channel.set_loss ch ~rng:(Prng.named streams ("loss:" ^ Channel.name ch)) spec

let channel params engine ~latency ~loss name =
  let ch = Channel.create ~strict:true engine ~latency ~name () in
  set_proto_codec ch;
  apply_loss params loss ch;
  ch

type t = {
  params : Params.t;
  engine : Engine.t;
  topo : Topology.t;
  hosts : Host_model.t;
  switches : Edge_switch.t array;
  peer : (int * int, Edge_switch.msg Channel.t) Hashtbl.t;
  mutable peer_loss : Channel.loss_spec option;
      (* current spec, inherited by peer channels created later *)
}

let hosts t = t.hosts
let switch t sw = t.switches.(Sid.to_int sw)

let live_switches t =
  List.filter_map
    (fun sw ->
      let es = switch t sw in
      if Edge_switch.is_up es then Some (sw, es) else None)
    (Topology.switches t.topo)

let peer_channel t ~src ~dst =
  let key = (Sid.to_int src, Sid.to_int dst) in
  match Hashtbl.find_opt t.peer key with
  | Some ch -> ch
  | None ->
      let ch =
        channel t.params t.engine ~latency:t.params.Params.peer_link_latency
          ~loss:t.peer_loss
          (Printf.sprintf "peer-%d-%d" (fst key) (snd key))
      in
      let receiver = t.switches.(snd key) in
      Channel.set_receiver ch (fun msg ->
          Edge_switch.handle_peer_message receiver ~from:src msg);
      Hashtbl.replace t.peer key ch;
      ch

let peer_channels t =
  List.map snd (Det.bindings_sorted ~cmp:Det.pair_compare t.peer)

let host_side ~params ~engine ~topo ~from_host ~on_delivery =
  let port = params.Params.host_port_latency in
  let hosts =
    Host_model.create engine
      ~send:(fun host pkt ->
        let loc = Sid.to_int (Topology.location topo host.Host.id) in
        ignore (Engine.schedule engine ~after:port (fun () -> from_host loc host pkt)))
      ~arp_ttl:params.Params.arp_cache_ttl
      ~stack_delay:params.Params.host_stack_delay
  in
  (* One closure for the scheduled thunk to capture, so each delivery
     event allocates no more than a direct call would; OpenFlow floods
     make these events numerous. *)
  let deliver host pkt = on_delivery (Host_model.deliver hosts ~to_:host pkt) in
  let deliver_local host pkt =
    ignore (Engine.schedule engine ~after:port (fun () -> deliver host pkt))
  in
  (hosts, deliver_local)

let create ?(tracer = Tracer.disabled) ~params ~engine ~topo ~underlay
    ~to_controller ~on_delivery () =
  (* Host frames and peer sends need the finished fabric; creation itself
     sends nothing, so a forward reference ties the knot. *)
  let fabric = ref None in
  let get () = Option.get !fabric in
  let hosts, deliver_local =
    host_side ~params ~engine ~topo ~on_delivery ~from_host:(fun i host pkt ->
        Edge_switch.handle_from_host (get ()).switches.(i) host pkt)
  in
  let rng = Prng.create params.Params.seed in
  let make_switch i =
    let self = Sid.of_int i in
    let env =
      {
        Edge_switch.engine;
        send_controller = (fun msg -> Channel.send (to_controller i) msg);
        send_peer =
          (fun p msg ->
            if not (Sid.equal p self) then
              ignore (Channel.send (peer_channel (get ()) ~src:self ~dst:p) msg));
        send_underlay = (fun pkt -> ignore (Underlay.send underlay pkt));
        deliver_local;
        underlay_ip_of = (fun sw -> Topology.underlay_ip topo sw);
      }
    in
    let sw =
      Edge_switch.create ~tracer
        ~rng:(Prng.named rng "switch-sessions")
        env params.Params.switch_config ~self
    in
    Underlay.register underlay (Topology.underlay_ip topo self) (fun pkt ->
        Edge_switch.handle_underlay sw pkt);
    sw
  in
  let t =
    {
      params;
      engine;
      topo;
      hosts;
      switches = Array.init (Topology.n_switches topo) make_switch;
      peer = Hashtbl.create 1024;
      peer_loss = params.Params.peer_loss;
    }
  in
  fabric := Some t;
  List.iter
    (fun (h : Host.t) -> Edge_switch.attach_host (switch t (Topology.location topo h.id)) h)
    (Topology.hosts topo);
  t

(* --- faults --------------------------------------------------------------- *)

let fail_switch t sw = Edge_switch.set_up (switch t sw) false

let repair_switch t sw =
  let es = switch t sw in
  if not (Edge_switch.is_up es) then Edge_switch.set_up es true

let set_peer_loss t spec =
  t.peer_loss <- spec;
  List.iter (apply_loss t.params spec) (peer_channels t)

(* --- switch-side accounting ----------------------------------------------- *)

let switch_stats_sum t =
  Array.fold_left
    (fun acc sw -> Edge_switch.stats_add acc (Edge_switch.stats sw))
    Edge_switch.stats_zero t.switches

let reliable_stats t =
  Array.fold_left
    (fun acc sw -> Reliable.stats_add acc (Edge_switch.reliable_stats sw))
    Reliable.stats_zero t.switches
