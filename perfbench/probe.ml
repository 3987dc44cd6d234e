(* Unit-cost probes for the per-layer ledger.

   Each probe times one layer in isolation through its public functions
   at the operating point a measured run had, so that unit cost times
   the run's operation count estimates the layer's share of the run's
   host time. *)

open Lazyctrl_sim
open Lazyctrl_net
open Lazyctrl_openflow
module Wire = Lazyctrl_wire.Wire
module Proto = Lazyctrl_switch.Proto
module Measure = Lazyctrl_perf.Measure
module Prng = Lazyctrl_util.Prng

(* Bare [Engine.schedule] + [Engine.step] cost with [depth] events
   pending: every fired event schedules one more, so the queue holds the
   depth the measured run kept on average. *)
let engine_ns_per_event ~depth =
  let e = Engine.create () in
  let rng = Prng.create 11 in
  let delays =
    Array.init 4096 (fun _ -> Time.of_ns (1 + Prng.int rng 2_000_000))
  in
  let k = ref 0 in
  let rec fire () =
    incr k;
    ignore (Engine.schedule e ~after:(Array.unsafe_get delays (!k land 4095)) fire)
  in
  for _ = 1 to max 1 depth do
    fire ()
  done;
  let n = 200_000 in
  let r =
    Measure.run ~name:"engine" ~reps:5 ~ops_per_rep:n (fun () ->
        for _ = 1 to n do
          ignore (Engine.step e)
        done)
  in
  r.Measure.ns_per_op

(* Weighted mean encode and decode ns per frame over a message mix. *)
let codec_ns ext mix =
  let n = 10_000 in
  let time f = (Measure.run ~name:"wire" ~reps:3 ~ops_per_rep:n f).Measure.ns_per_op in
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. mix in
  if total <= 0. then (0., 0.)
  else
    let enc, dec =
      List.fold_left
        (fun (enc, dec) (w, m) ->
          if w <= 0. then (enc, dec)
          else
            let frame = Wire.encode ext m in
            let e =
              time (fun () ->
                  for _ = 1 to n do
                    ignore (Sys.opaque_identity (Wire.encode ext m))
                  done)
            in
            let d =
              time (fun () ->
                  for _ = 1 to n do
                    ignore (Sys.opaque_identity (Wire.decode ext frame))
                  done)
            in
            (enc +. (w *. e), dec +. (w *. d)))
        (0., 0.) mix
    in
    (enc /. total, dec /. total)

let host i = Host.make ~id:(Ids.Host_id.of_int i) ~tenant:(Ids.Tenant_id.of_int 0)
let data_packet = Packet.data ~src:(host 1) ~dst:(host 2) ~length:1400 ()
let arp_packet = Packet.arp_request ~sender:(host 1) ~target_ip:(Ipv4.of_host_id 2) ()
let sid = Ids.Switch_id.of_int

let key i =
  { Proto.mac = Mac.of_host_id i; ip = Ipv4.of_host_id i; tenant = Ids.Tenant_id.of_int 0 }

let packet_in ~buffered =
  Message.Packet_in
    {
      packet = data_packet;
      reason = Message.No_match;
      buffer_id = (if buffered then 7 else Message.no_buffer);
    }

let flow_mod () =
  Message.Flow_mod
    (Message.Add
       {
         Flow_table.priority = 10;
         ofmatch = Ofmatch.of_eth (Packet.eth_of data_packet);
         actions = [ Action.Deliver (Ids.Host_id.of_int 2) ];
         idle_timeout = Some (Time.of_sec 5);
         hard_timeout = None;
         cookie = 1;
       })

let buffer_out () = Message.Buffer_out { buffer_id = 7; actions = [ Action.Encap (Ipv4.of_host_id 9) ] }
let packet_out () = Message.Packet_out { packet = data_packet; actions = [ Action.Flood_local ] }

(* A reliable envelope whose payload is an L-FIB advert as large as the
   run's mean reliable payload. *)
let seq_frame ~payload_bytes =
  let advert n =
    Message.Extension
      (Proto.Lfib_advert { origin = sid 1; added = List.init n key; removed = []; full = true })
  in
  let rec grow n =
    if n >= 4096 || Wire.message_size Proto.wire_ext (advert n) >= payload_bytes then n
    else grow (n + 1)
  in
  Message.Extension (Proto.Seq { epoch = 1; seq = 1; payload = advert (grow 0) })

(* The lazy plane's frame mix, weighted by the run's counters; frames the
   counters do not name (echoes, member reports, group ARP) are priced as
   echo requests. *)
let lazy_mix get =
  let seq = get "reliable.data_sent" +. get "reliable.retransmits" in
  let payload_bytes =
    if seq > 0. then Float.to_int (get "reliable.payload_bytes" /. get "reliable.data_sent") else 0
  in
  let named =
    [
      (seq, seq_frame ~payload_bytes);
      (get "reliable.acks_sent", Message.Extension (Proto.Ack { epoch = 1; cum = 1 }));
      (get "switch.keepalives_sent", Message.Extension (Proto.Keepalive { from = sid 1 }));
      (get "switch.buffer_pool.stored", packet_in ~buffered:true);
      (get "switch.buffer_pool.full_fallbacks", packet_in ~buffered:false);
      (get "controller.flow_mods_sent", flow_mod ());
      (get "controller.buffer_outs_sent", buffer_out ());
      (get "controller.packet_outs_sent", packet_out ());
      ( get "controller.state_reports",
        Message.Extension
          (Proto.State_report
             {
               group = Ids.Group_id.of_int 1;
               deltas = [ { Proto.origin = sid 1; added = [ key 1 ]; removed = []; full = false } ];
               intensity = [ (sid 1, sid 2, 3) ];
             }) );
      ( get "controller.arp_escalations",
        Message.Extension (Proto.Arp_escalate { origin = sid 1; packet = arp_packet }) );
    ]
  in
  let rest = get "channel.frames_sent" -. List.fold_left (fun a (w, _) -> a +. w) 0. named in
  (Float.max 0. rest, Message.Echo_request 1) :: named

(* The OpenFlow plane's frame mix; unnamed frames are priced as packet
   outs, which floods send. *)
let openflow_mix get =
  let named =
    [
      (get "switch.buffer_pool.stored", packet_in ~buffered:true);
      (get "switch.buffer_pool.full_fallbacks", packet_in ~buffered:false);
      (get "of_controller.flow_mods_sent", flow_mod ());
      (get "of_controller.buffer_outs_sent", buffer_out ());
    ]
  in
  let rest = get "channel.frames_sent" -. List.fold_left (fun a (w, _) -> a +. w) 0. named in
  (Float.max 0. rest, packet_out ()) :: named

(* Encode and decode ns per frame for the mix of the run whose counters
   [get] reads. *)
let wire_ns_per_frame (mode : Lazyctrl_core.Network.mode) get =
  match mode with
  | Lazyctrl_core.Network.Lazy -> codec_ns Proto.wire_ext (lazy_mix get)
  | Lazyctrl_core.Network.Openflow -> codec_ns Wire.unit_ext (openflow_mix get)
