open Lazyctrl_net
open Lazyctrl_sim

type flow_meta = {
  id : int;
  src : Ids.Host_id.t;
  dst : Ids.Host_id.t;
  bytes : int;
  packets : int;
  started : Time.t;
}

type delivery =
  | Data_first of flow_meta
  | Data_duplicate
  | Arp_handled
  | Not_for_host

type t = {
  engine : Engine.t;
  send : Host.t -> Packet.t -> unit;
  arp_ttl : Time.t;
  stack_delay : Time.t;
  arp_cache : (int * int, Time.t) Hashtbl.t; (* (host, peer ip) -> expiry *)
  pending : (int * int, (Host.t * Host.t * int * int * Time.t) list) Hashtbl.t;
      (* (host, peer ip) -> queued flows (src, dst, bytes, packets,
         initiated-at), newest first *)
  in_flight : (int, flow_meta) Hashtbl.t; (* flow id -> meta *)
  mutable next_flow_id : int;
  mutable started : int;
  mutable delivered : int;
  mutable arp_sent : int;
  mutable arp_failed : int;
}

let create engine ~send ~arp_ttl ~stack_delay =
  {
    engine;
    send;
    arp_ttl;
    stack_delay;
    arp_cache = Hashtbl.create 4096;
    pending = Hashtbl.create 256;
    in_flight = Hashtbl.create 1024;
    next_flow_id = 0;
    started = 0;
    delivered = 0;
    arp_sent = 0;
    arp_failed = 0;
  }

let now t = Engine.now t.engine

let cache_key (host : Host.t) ip = (Ids.Host_id.to_int host.id, Ipv4.to_int ip)

let cache_fresh t host ip =
  match Hashtbl.find_opt t.arp_cache (cache_key host ip) with
  | Some expiry -> Time.(now t < expiry)
  | None -> false

let vlan_of (h : Host.t) = Lazyctrl_topo.Topology.vlan_of_tenant h.tenant

let send_data t (src : Host.t) (dst : Host.t) ~bytes ~packets ~initiated =
  let id = t.next_flow_id in
  t.next_flow_id <- t.next_flow_id + 1;
  t.started <- t.started + 1;
  (* Latency is measured from flow initiation, so a first packet held back
     by ARP resolution carries the resolution cost, as in the paper's
     cold-cache runs. *)
  let meta = { id; src = src.id; dst = dst.id; bytes; packets; started = initiated } in
  Hashtbl.replace t.in_flight id meta;
  let packet =
    Packet.data ~src ~dst ~vlan:(vlan_of src)
      ~src_port:(id land 0xffff)
      ~dst_port:((id lsr 16) land 0xffff)
      ~length:(max 64 (bytes / max 1 packets))
      ()
  in
  t.send src packet

(* Real stacks retransmit ARP; without it, one request lost in a
   regrouping window would strand every flow queued behind it. *)
let max_arp_retries = 4

let rec send_arp t (src : Host.t) target_ip ~attempt =
  t.arp_sent <- t.arp_sent + 1;
  t.send src
    (Packet.arp_request ~sender:src ~target_ip ~vlan:(vlan_of src) ());
  let key = cache_key src target_ip in
  ignore
    (Engine.schedule t.engine
       ~after:(Time.scale (Time.of_sec 1) (Float.of_int (attempt + 1)))
       (fun () ->
         if Hashtbl.mem t.pending key then
           if attempt < max_arp_retries then
             send_arp t src target_ip ~attempt:(attempt + 1)
           else begin
             (* Resolution failed: give up on the queued flows so a later
                flow can start a fresh resolution. *)
             t.arp_failed <- t.arp_failed + 1;
             Hashtbl.remove t.pending key
           end))

let start_flow t ~src ~dst ~bytes ~packets =
  let (dst : Host.t) = dst in
  if cache_fresh t src dst.ip then
    send_data t src dst ~bytes ~packets ~initiated:(now t)
  else begin
    let key = cache_key src dst.ip in
    let queued = Option.value (Hashtbl.find_opt t.pending key) ~default:[] in
    Hashtbl.replace t.pending key ((src, dst, bytes, packets, now t) :: queued);
    (* One outstanding resolution per (host, target); later flows just
       queue behind it. *)
    if List.is_empty queued then send_arp t src dst.ip ~attempt:0
  end

let flow_id_of (p : Packet.ipv4_payload) =
  p.src_port lor (p.dst_port lsl 16)

let deliver t ~to_ packet =
  let (host : Host.t) = to_ in
  let eth = Packet.eth_of packet in
  match eth.Packet.payload with
  | Packet.Arp { op = Packet.Request; sender_mac; sender_ip; target_ip; _ } ->
      if Ipv4.equal target_ip host.ip then begin
        (* Answer after the stack delay; also learn the requester (gratuitous
           cache fill, as real stacks do). *)
        Hashtbl.replace t.arp_cache (cache_key host sender_ip)
          (Time.add (now t) t.arp_ttl);
        let requester =
          (* Reconstruct the peer's identity from the ARP payload. *)
          {
            Host.id = Ids.Host_id.of_int (Mac.to_int sender_mac land ((1 lsl 40) - 1));
            mac = sender_mac;
            ip = sender_ip;
            tenant = host.tenant;
          }
        in
        ignore
          (Engine.schedule t.engine ~after:t.stack_delay (fun () ->
               t.send host
                 (Packet.arp_reply ~sender:host ~requester ~vlan:(vlan_of host) ())));
        Arp_handled
      end
      else Not_for_host
  | Packet.Arp { op = Packet.Reply; sender_ip; _ } ->
      Hashtbl.replace t.arp_cache (cache_key host sender_ip)
        (Time.add (now t) t.arp_ttl);
      let key = cache_key host sender_ip in
      (match Hashtbl.find_opt t.pending key with
      | None -> ()
      | Some queued ->
          Hashtbl.remove t.pending key;
          List.iter
            (fun (src, dst, bytes, packets, initiated) ->
              send_data t src dst ~bytes ~packets ~initiated)
            (List.rev queued));
      Arp_handled
  | Packet.Ipv4 p ->
      if not (Mac.equal eth.Packet.dst host.mac) then Not_for_host
      else begin
        let id = flow_id_of p in
        match Hashtbl.find_opt t.in_flight id with
        | Some meta when Ids.Host_id.equal meta.dst host.id ->
            Hashtbl.remove t.in_flight id;
            t.delivered <- t.delivered + 1;
            Data_first meta
        | Some _ | None -> Data_duplicate
      end

let resolutions_failed t = t.arp_failed
let flows_started t = t.started
let flows_delivered t = t.delivered
let arp_requests_sent t = t.arp_sent
let pending_resolutions t = Hashtbl.length t.pending
