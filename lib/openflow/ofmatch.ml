open Lazyctrl_net

type t = {
  src_mac : Mac.t option;
  dst_mac : Mac.t option;
  vlan : int option;
  src_ip : Ipv4.t option;
  dst_ip : Ipv4.t option;
  protocol : int option;
  src_port : int option;
  dst_port : int option;
  arp_only : bool;
}

let any =
  {
    src_mac = None;
    dst_mac = None;
    vlan = None;
    src_ip = None;
    dst_ip = None;
    protocol = None;
    src_port = None;
    dst_port = None;
    arp_only = false;
  }

let exact_pair ~src ~dst = { any with src_mac = Some src; dst_mac = Some dst }

let of_eth (e : Packet.eth) =
  match e.payload with
  | Packet.Arp _ ->
      { any with src_mac = Some e.src; dst_mac = Some e.dst; vlan = e.vlan; arp_only = true }
  | Packet.Ipv4 p ->
      {
        src_mac = Some e.src;
        dst_mac = Some e.dst;
        vlan = e.vlan;
        src_ip = Some p.src_ip;
        dst_ip = Some p.dst_ip;
        protocol = Some p.protocol;
        src_port = Some p.src_port;
        dst_port = Some p.dst_port;
        arp_only = false;
      }

let field_ok eq pin actual =
  match pin with None -> true | Some v -> eq v actual

let matches t (e : Packet.eth) =
  field_ok Mac.equal t.src_mac e.src
  && field_ok Mac.equal t.dst_mac e.dst
  && (match (t.vlan, e.vlan) with
     | None, _ -> true
     | Some v, Some w -> Int.equal v w
     | Some _, None -> false)
  &&
  match e.payload with
  | Packet.Arp _ ->
      (* IP-layer pins cannot match an ARP frame. *)
      Option.is_none t.src_ip && Option.is_none t.dst_ip
      && Option.is_none t.protocol && Option.is_none t.src_port
      && Option.is_none t.dst_port
  | Packet.Ipv4 p ->
      (not t.arp_only)
      && field_ok Ipv4.equal t.src_ip p.src_ip
      && field_ok Ipv4.equal t.dst_ip p.dst_ip
      && field_ok Int.equal t.protocol p.protocol
      && field_ok Int.equal t.src_port p.src_port
      && field_ok Int.equal t.dst_port p.dst_port

let specificity t =
  let c = ref 0 in
  let count o = if Option.is_some o then incr c in
  count (Option.map Mac.to_int t.src_mac);
  count (Option.map Mac.to_int t.dst_mac);
  count t.vlan;
  count (Option.map Ipv4.to_int t.src_ip);
  count (Option.map Ipv4.to_int t.dst_ip);
  count t.protocol;
  count t.src_port;
  count t.dst_port;
  if t.arp_only then incr c;
  !c

let subsumes a b =
  let covers eq pa pb =
    match (pa, pb) with
    | None, _ -> true
    | Some _, None -> false
    | Some x, Some y -> eq x y
  in
  covers Mac.equal a.src_mac b.src_mac
  && covers Mac.equal a.dst_mac b.dst_mac
  && covers Int.equal a.vlan b.vlan
  && covers Ipv4.equal a.src_ip b.src_ip
  && covers Ipv4.equal a.dst_ip b.dst_ip
  && covers Int.equal a.protocol b.protocol
  && covers Int.equal a.src_port b.src_port
  && covers Int.equal a.dst_port b.dst_port
  && (a.arp_only = false || b.arp_only = true)

let equal a b =
  Option.equal Mac.equal a.src_mac b.src_mac
  && Option.equal Mac.equal a.dst_mac b.dst_mac
  && Option.equal Int.equal a.vlan b.vlan
  && Option.equal Ipv4.equal a.src_ip b.src_ip
  && Option.equal Ipv4.equal a.dst_ip b.dst_ip
  && Option.equal Int.equal a.protocol b.protocol
  && Option.equal Int.equal a.src_port b.src_port
  && Option.equal Int.equal a.dst_port b.dst_port
  && Bool.equal a.arp_only b.arp_only

let pp fmt t =
  let field name pp_v fmt = function
    | None -> ()
    | Some v -> Format.fprintf fmt " %s=%a" name pp_v v
  in
  Format.fprintf fmt "{match%a%a%a%a%a%a%a%a%s}"
    (field "smac" Mac.pp) t.src_mac
    (field "dmac" Mac.pp) t.dst_mac
    (field "vlan" Format.pp_print_int) t.vlan
    (field "sip" Ipv4.pp) t.src_ip
    (field "dip" Ipv4.pp) t.dst_ip
    (field "proto" Format.pp_print_int) t.protocol
    (field "sport" Format.pp_print_int) t.src_port
    (field "dport" Format.pp_print_int) t.dst_port
    (if t.arp_only then " arp" else "")
