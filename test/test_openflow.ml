(* Tests for lazyctrl.openflow: matches, flow tables, messages, channels. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow

let check = Alcotest.check

let host i = Host.make ~id:(Ids.Host_id.of_int i) ~tenant:(Ids.Tenant_id.of_int 0)
let data_eth ?vlan ?(src = 1) ?(dst = 2) () =
  Packet.eth_of (Packet.data ~src:(host src) ~dst:(host dst) ?vlan ~length:100 ())

let mac_of i = (host i).Host.mac

let arp_eth ?(src = 1) ?(dst = 2) () =
  Packet.eth_of
    (Packet.arp_request ~sender:(host src) ~target_ip:(host dst).Host.ip ())

(* --- Ofmatch ----------------------------------------------------------------- *)

let test_match_any () =
  check Alcotest.bool "any matches data" true (Ofmatch.matches Ofmatch.any (data_eth ()));
  check Alcotest.bool "any matches arp" true (Ofmatch.matches Ofmatch.any (arp_eth ()));
  check Alcotest.int "specificity zero" 0 (Ofmatch.specificity Ofmatch.any)

let test_match_exact_pair () =
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  check Alcotest.bool "matches" true (Ofmatch.matches m (data_eth ()));
  check Alcotest.bool "wrong dst" false (Ofmatch.matches m (data_eth ~dst:3 ()));
  check Alcotest.bool "wrong src" false (Ofmatch.matches m (data_eth ~src:4 ()));
  check Alcotest.int "specificity" 2 (Ofmatch.specificity m)

let test_match_of_eth_microflow () =
  let e = data_eth ~vlan:5 () in
  let m = Ofmatch.of_eth e in
  check Alcotest.bool "matches itself" true (Ofmatch.matches m e);
  check Alcotest.bool "not another flow" false (Ofmatch.matches m (data_eth ~dst:9 ()));
  let a = arp_eth () in
  let ma = Ofmatch.of_eth a in
  check Alcotest.bool "arp microflow matches" true (Ofmatch.matches ma a);
  check Alcotest.bool "arp-only rejects data" false (Ofmatch.matches ma (data_eth ()))

let test_match_ip_pins_vs_arp () =
  let m = { Ofmatch.any with Ofmatch.dst_ip = Some (host 2).Host.ip } in
  check Alcotest.bool "ip pin rejects arp" false (Ofmatch.matches m (arp_eth ()));
  check Alcotest.bool "ip pin accepts data" true (Ofmatch.matches m (data_eth ()))

let test_match_vlan () =
  let m = { Ofmatch.any with Ofmatch.vlan = Some 7 } in
  check Alcotest.bool "tag match" true (Ofmatch.matches m (data_eth ~vlan:7 ()));
  check Alcotest.bool "tag mismatch" false (Ofmatch.matches m (data_eth ~vlan:8 ()));
  check Alcotest.bool "untagged" false (Ofmatch.matches m (data_eth ()))

let test_subsumes () =
  let wide = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  let narrow = Ofmatch.of_eth (data_eth ()) in
  check Alcotest.bool "any subsumes all" true (Ofmatch.subsumes Ofmatch.any narrow);
  check Alcotest.bool "pair subsumes microflow" true (Ofmatch.subsumes wide narrow);
  check Alcotest.bool "microflow not wider" false (Ofmatch.subsumes narrow wide);
  check Alcotest.bool "reflexive" true (Ofmatch.subsumes wide wide)

(* Typed [equal] must agree with structural equality; small field
   domains make equal pairs common. *)
let test_match_equal =
  let open QCheck2.Gen in
  let field g = opt ~ratio:0.5 g in
  let gen_match =
    let* src_mac = field (map mac_of (int_range 0 2)) in
    let* dst_mac = field (map mac_of (int_range 0 2)) in
    let* vlan = field (int_range 0 1) in
    let* src_ip = field (map Ipv4.of_host_id (int_range 0 1)) in
    let* dst_ip = field (map Ipv4.of_host_id (int_range 0 1)) in
    let* protocol = field (oneofl [ 6; 17 ]) in
    let* src_port = field (int_range 0 1) in
    let* dst_port = field (int_range 0 1) in
    let* arp_only = bool in
    return
      { Ofmatch.src_mac; dst_mac; vlan; src_ip; dst_ip; protocol; src_port; dst_port; arp_only }
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"equal is structural equality"
       (pair gen_match gen_match) (fun (a, b) ->
         Bool.equal (Ofmatch.equal a b) (a = b) && Ofmatch.equal a a))

let test_match_pp () =
  let shown m = Format.asprintf "%a" Ofmatch.pp m in
  let m = { Ofmatch.any with Ofmatch.protocol = Some 6; src_port = Some 1234; dst_port = Some 80 } in
  check Alcotest.string "protocol and ports shown" "{match proto=6 sport=1234 dport=80}"
    (shown m);
  check Alcotest.string "wildcards omitted" "{match}" (shown Ofmatch.any)

(* --- Flow_table ----------------------------------------------------------------- *)

let entry ?(priority = 10) ?(idle = None) ?(hard = None) ?(cookie = 0) m actions =
  {
    Flow_table.priority;
    ofmatch = m;
    actions;
    idle_timeout = idle;
    hard_timeout = hard;
    cookie;
  }

let test_table_priority () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.install t ~now (entry ~priority:1 Ofmatch.any [ Action.Drop ]);
  Flow_table.install t ~now
    (entry ~priority:5
       (Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac)
       [ Action.Flood_local ]);
  (match Flow_table.lookup t ~now (data_eth ()) with
  | Some [ Action.Flood_local ] -> ()
  | _ -> Alcotest.fail "higher priority must win");
  match Flow_table.lookup t ~now (data_eth ~src:7 ()) with
  | Some [ Action.Drop ] -> ()
  | _ -> Alcotest.fail "fallback to catch-all"

let test_table_replace_same_match () =
  let t = Flow_table.create () in
  let now = Time.zero in
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  Flow_table.install t ~now (entry m [ Action.Drop ]);
  Flow_table.install t ~now (entry m [ Action.Flood_local ]);
  check Alcotest.int "replaced, not duplicated" 1 (Flow_table.size t);
  match Flow_table.lookup t ~now (data_eth ()) with
  | Some [ Action.Flood_local ] -> ()
  | _ -> Alcotest.fail "replacement must win"

let test_table_idle_timeout () =
  let t = Flow_table.create () in
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  Flow_table.install t ~now:Time.zero (entry ~idle:(Some (Time.of_sec 5)) m [ Action.Drop ]);
  (* Use at t=4 refreshes the idle deadline. *)
  check Alcotest.bool "hit at 4s" true
    (Flow_table.lookup t ~now:(Time.of_sec 4) (data_eth ()) <> None);
  check Alcotest.bool "still alive at 8s (refreshed)" true
    (Flow_table.lookup t ~now:(Time.of_sec 8) (data_eth ()) <> None);
  check Alcotest.bool "expired at 14s" true
    (Flow_table.lookup t ~now:(Time.of_sec 14) (data_eth ()) = None)

let test_table_hard_timeout () =
  let t = Flow_table.create () in
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  Flow_table.install t ~now:Time.zero (entry ~hard:(Some (Time.of_sec 5)) m [ Action.Drop ]);
  check Alcotest.bool "hit at 4s" true
    (Flow_table.lookup t ~now:(Time.of_sec 4) (data_eth ()) <> None);
  check Alcotest.bool "hard-expired at 6s despite use" true
    (Flow_table.lookup t ~now:(Time.of_sec 6) (data_eth ()) = None);
  check Alcotest.int "swept" 1 (Flow_table.sweep t ~now:(Time.of_sec 6));
  check Alcotest.int "empty after sweep" 0 (Flow_table.size t)

let test_table_sweep () =
  let t = Flow_table.create () in
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  Flow_table.install t ~now:Time.zero (entry ~hard:(Some (Time.of_sec 1)) m [ Action.Drop ]);
  Flow_table.install t ~now:Time.zero (entry ~priority:3 Ofmatch.any [ Action.Drop ]);
  check Alcotest.int "one expired" 1 (Flow_table.sweep t ~now:(Time.of_sec 2));
  check Alcotest.int "one left" 1 (Flow_table.size t);
  check Alcotest.int "expiry counted" 1 (Flow_table.stats t).Flow_table.expiries

let test_table_capacity_eviction () =
  let t = Flow_table.create ~capacity:2 () in
  let now = Time.zero in
  let m i = Ofmatch.exact_pair ~src:(host i).Host.mac ~dst:(host (i + 100)).Host.mac in
  Flow_table.install t ~now (entry ~priority:1 (m 1) [ Action.Drop ]);
  Flow_table.install t ~now (entry ~priority:9 (m 2) [ Action.Drop ]);
  Flow_table.install t ~now (entry ~priority:5 (m 3) [ Action.Drop ]);
  check Alcotest.int "bounded" 2 (Flow_table.size t);
  check Alcotest.int "eviction counted" 1 (Flow_table.stats t).Flow_table.evictions;
  (* The lowest-priority entry was evicted. *)
  check Alcotest.bool "low priority gone" true
    (Flow_table.lookup t ~now (data_eth ~src:1 ~dst:101 ()) = None)

let test_table_remove_matching () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.install t ~now
    (entry (Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac) [ Action.Drop ]);
  Flow_table.install t ~now
    (entry (Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 3).Host.mac) [ Action.Drop ]);
  let wild = { Ofmatch.any with Ofmatch.src_mac = Some (host 1).Host.mac } in
  check Alcotest.int "both removed" 2 (Flow_table.remove_matching t wild);
  check Alcotest.int "empty" 0 (Flow_table.size t)

let test_table_counters () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.install t ~now (entry ~cookie:7 Ofmatch.any [ Action.Drop ]);
  ignore (Flow_table.lookup t ~now (data_eth ()));
  ignore (Flow_table.lookup t ~now (data_eth ()));
  check Alcotest.int "packet count by cookie" 2 (Flow_table.packet_count t ~cookie:7);
  let s = Flow_table.stats t in
  check Alcotest.int "lookups" 2 s.Flow_table.lookups;
  check Alcotest.int "hits" 2 s.Flow_table.hits;
  check Alcotest.int "installs" 1 s.Flow_table.installs

(* Model-based check against the reference: the sorted-list table the
   indexed one replaced, kept verbatim (only [entry] is re-exported from
   Flow_table so both tables take the same values).  Every install
   re-sorts one global list and sweeps it in full, so its behaviour is
   easy to read off; the indexed table must agree with it exactly. *)
module Reference = struct
  open Lazyctrl_sim

  type entry = Flow_table.entry = {
    priority : int;
    ofmatch : Ofmatch.t;
    actions : Action.t list;
    idle_timeout : Time.t option;
    hard_timeout : Time.t option;
    cookie : int;
  }

  type live = {
    entry : entry;
    seq : int; (* installation order; later wins among equal priorities *)
    installed_at : Time.t;
    mutable last_used : Time.t;
    mutable packets : int;
  }

  type stats = {
    lookups : int;
    hits : int;
    installs : int;
    evictions : int;
    expiries : int;
  }

  type t = {
    capacity : int;
    mutable rows : live list; (* sorted: priority desc, then seq desc *)
    mutable next_seq : int;
    mutable lookups : int;
    mutable hits : int;
    mutable installs : int;
    mutable evictions : int;
    mutable expiries : int;
  }

  let create ?(capacity = 65536) () =
    if capacity <= 0 then invalid_arg "Flow_table.create: capacity must be positive";
    {
      capacity;
      rows = [];
      next_seq = 0;
      lookups = 0;
      hits = 0;
      installs = 0;
      evictions = 0;
      expiries = 0;
    }

  let expired ~now l =
    (match l.entry.hard_timeout with
    | Some h -> Time.(Time.add l.installed_at h <= now)
    | None -> false)
    ||
    match l.entry.idle_timeout with
    | Some i -> Time.(Time.add l.last_used i <= now)
    | None -> false

  let sweep t ~now =
    let before = List.length t.rows in
    t.rows <- List.filter (fun l -> not (expired ~now l)) t.rows;
    let dropped = before - List.length t.rows in
    t.expiries <- t.expiries + dropped;
    dropped

  let cmp_rows a b =
    match Int.compare b.entry.priority a.entry.priority with
    | 0 -> Int.compare b.seq a.seq
    | c -> c

  let evict_one t =
    (* Lowest priority; among those, the oldest use. *)
    match
      List.fold_left
        (fun acc l ->
          match acc with
          | None -> Some l
          | Some best ->
              if
                l.entry.priority < best.entry.priority
                || (l.entry.priority = best.entry.priority
                   && Time.(l.last_used < best.last_used))
              then Some l
              else acc)
        None t.rows
    with
    | None -> ()
    | Some victim ->
        t.rows <- List.filter (fun l -> l != victim) t.rows;
        t.evictions <- t.evictions + 1

  let install t ~now entry =
    t.installs <- t.installs + 1;
    t.rows <-
      List.filter
        (fun l ->
          not
            (l.entry.priority = entry.priority
            && Ofmatch.equal l.entry.ofmatch entry.ofmatch))
        t.rows;
    ignore (sweep t ~now);
    if List.length t.rows >= t.capacity then evict_one t;
    let l =
      { entry; seq = t.next_seq; installed_at = now; last_used = now; packets = 0 }
    in
    t.next_seq <- t.next_seq + 1;
    t.rows <- List.sort cmp_rows (l :: t.rows)

  let remove_matching t m =
    let before = List.length t.rows in
    t.rows <- List.filter (fun l -> not (Ofmatch.subsumes m l.entry.ofmatch)) t.rows;
    before - List.length t.rows

  (* Fully-applied recursion (a local [let rec find = ...] would build a
     closure per lookup, and lookup is on the per-packet hot path).  The
     single [Some] boxing the hit is the lookup API and is allowlisted. *)
  let rec lookup_rows t ~now eth rows =
    match rows with
    | [] -> None
    | l :: rest ->
        if expired ~now l then lookup_rows t ~now eth rest
        else if Ofmatch.matches l.entry.ofmatch eth then begin
          t.hits <- t.hits + 1;
          l.last_used <- now;
          l.packets <- l.packets + 1;
          Some l.entry.actions
        end
        else lookup_rows t ~now eth rest

  let lookup t ~now eth =
    t.lookups <- t.lookups + 1;
    lookup_rows t ~now eth t.rows

  let size t = List.length t.rows
  let capacity t = t.capacity

  let stats t =
    {
      lookups = t.lookups;
      hits = t.hits;
      installs = t.installs;
      evictions = t.evictions;
      expiries = t.expiries;
    }

  let entries t = List.map (fun l -> l.entry) t.rows

  let packet_count t ~cookie =
    List.fold_left
      (fun acc l -> if l.entry.cookie = cookie then acc + l.packets else acc)
      0 t.rows
end

type op =
  | Install of { prio : int; src : int option; dst : int option;
                 idle : int option; hard : int option }
  | Lookup of { src : int; dst : int; arp : bool }
  | Sweep
  | Remove of { src : int option; dst : int option }

let pp_op fmt = function
  | Install { prio; src; dst; idle; hard } ->
      let o = function None -> "*" | Some i -> string_of_int i in
      Format.fprintf fmt "install(p%d %s->%s idle=%s hard=%s)" prio (o src)
        (o dst) (o idle) (o hard)
  | Lookup { src; dst; arp } ->
      Format.fprintf fmt "lookup(%d->%d%s)" src dst (if arp then " arp" else "")
  | Sweep -> Format.pp_print_string fmt "sweep"
  | Remove { src; dst } ->
      let o = function None -> "*" | Some i -> string_of_int i in
      Format.fprintf fmt "remove(%s->%s)" (o src) (o dst)

let gen_case =
  let open QCheck2.Gen in
  let pin = opt ~ratio:0.7 (int_range 0 3) in
  let timeout = opt ~ratio:0.5 (int_range 1 6) in
  let gen_op =
    frequency
      [
        ( 5,
          let* prio = int_range 1 3 in
          let* src = pin in
          let* dst = pin in
          let* idle = timeout in
          let* hard = timeout in
          return (Install { prio; src; dst; idle; hard }) );
        ( 5,
          let* src = int_range 0 3 in
          let* dst = int_range 0 3 in
          let* arp = bool in
          return (Lookup { src; dst; arp }) );
        (1, return Sweep);
        ( 1,
          let* src = pin in
          let* dst = pin in
          return (Remove { src; dst }) );
      ]
  in
  let* capacity = oneofl [ 1; 2; 3; 4; 64 ] in
  (* Each op runs after advancing the clock by 0-2 s, so ties on
     [last_used] happen and timeouts of 1-6 s come due mid-sequence. *)
  let* ops = list_size (int_range 1 80) (pair (int_range 0 2) gen_op) in
  return (capacity, ops)

let print_case (capacity, ops) =
  Format.asprintf "capacity %d:@ %a" capacity
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun fmt (dt, op) ->
         Format.fprintf fmt "+%ds %a" dt pp_op op))
    ops

let same_stats (a : Flow_table.stats) (b : Reference.stats) =
  a.lookups = b.lookups && a.hits = b.hits && a.installs = b.installs
  && a.evictions = b.evictions && a.expiries = b.expiries

let test_table_model_based =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"flow table agrees with naive model"
       ~print:print_case gen_case (fun (capacity, ops) ->
         let t = Flow_table.create ~capacity () in
         let r = Reference.create ~capacity () in
         let now = ref Time.zero in
         let agree what ok =
           if not ok then QCheck2.Test.fail_reportf "disagree on %s" what
         in
         List.iteri
           (fun i (dt, op) ->
             now := Time.add !now (Time.of_sec dt);
             let now = !now in
             (match op with
             | Install { prio; src; dst; idle; hard } ->
                 let e =
                   entry ~priority:prio
                     ~idle:(Option.map Time.of_sec idle)
                     ~hard:(Option.map Time.of_sec hard)
                     ~cookie:(i mod 5)
                     {
                       Ofmatch.any with
                       Ofmatch.src_mac = Option.map mac_of src;
                       dst_mac = Option.map mac_of dst;
                     }
                     [ Action.Deliver (Ids.Host_id.of_int i) ]
                 in
                 Flow_table.install t ~now e;
                 Reference.install r ~now e
             | Lookup { src; dst; arp } ->
                 let eth = if arp then arp_eth ~src ~dst () else data_eth ~src ~dst () in
                 let got = Flow_table.lookup t ~now eth in
                 let want = Reference.lookup r ~now eth in
                 agree "lookup result"
                   (match (got, want) with
                   | None, None -> true
                   | Some a, Some b -> a == b
                   | _ -> false)
             | Sweep ->
                 agree "sweep count"
                   (Int.equal (Flow_table.sweep t ~now) (Reference.sweep r ~now))
             | Remove { src; dst } ->
                 let m =
                   {
                     Ofmatch.any with
                     Ofmatch.src_mac = Option.map mac_of src;
                     dst_mac = Option.map mac_of dst;
                   }
                 in
                 agree "remove count"
                   (Int.equal (Flow_table.remove_matching t m)
                      (Reference.remove_matching r m)));
             agree "stats" (same_stats (Flow_table.stats t) (Reference.stats r));
             agree "size" (Int.equal (Flow_table.size t) (Reference.size r));
             agree "capacity"
               (Int.equal (Flow_table.capacity t) (Reference.capacity r));
             agree "entries order"
               (List.equal ( == ) (Flow_table.entries t) (Reference.entries r));
             for cookie = 0 to 4 do
               agree "packet count"
                 (Int.equal
                    (Flow_table.packet_count t ~cookie)
                    (Reference.packet_count r ~cookie))
             done)
           ops;
         true))

(* --- Message -------------------------------------------------------------------- *)

let test_message_helpers () =
  let pkt = Packet.data ~src:(host 1) ~dst:(host 2) ~length:10 () in
  let pin =
    Message.Packet_in
      { packet = pkt; reason = Message.No_match; buffer_id = Message.no_buffer }
  in
  check Alcotest.bool "is_packet_in" true (Message.is_packet_in pin);
  check Alcotest.bool "hello isn't" false (Message.is_packet_in Message.Hello);
  let size = Message.size_estimate (fun (_ : unit) -> 0) pin in
  check Alcotest.bool "size includes packet" true (size > Packet.size_on_wire pkt)

(* --- Channel -------------------------------------------------------------------- *)

let test_channel_delivery_latency () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:(Time.of_ms 2) ~name:"c" () in
  let got = ref [] in
  Channel.set_receiver ch (fun m -> got := (m, Time.to_ns (Engine.now e)) :: !got);
  check Alcotest.bool "send ok" true (Channel.send ch "x");
  Engine.run e;
  (match !got with
  | [ ("x", t) ] -> check Alcotest.int "latency applied" 2_000_000 t
  | _ -> Alcotest.fail "expected one delivery");
  check Alcotest.int "sent" 1 (Channel.sent ch);
  check Alcotest.int "delivered" 1 (Channel.delivered ch)

let test_channel_fifo_under_jitter () =
  let e = Engine.create () in
  (* Decreasing jitter would reorder without the FIFO floor. *)
  let jitters = ref [ Time.of_ms 10; Time.of_ms 0 ] in
  let jitter () =
    match !jitters with
    | j :: rest ->
        jitters := rest;
        j
    | [] -> Time.zero
  in
  let ch = Channel.create e ~latency:(Time.of_ms 1) ~jitter ~name:"c" () in
  let got = ref [] in
  Channel.set_receiver ch (fun m -> got := m :: !got);
  ignore (Channel.send ch 1);
  ignore (Channel.send ch 2);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO preserved" [ 1; 2 ] (List.rev !got)

let test_channel_failure () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:(Time.of_ms 1) ~name:"c" () in
  let got = ref 0 in
  Channel.set_receiver ch (fun () -> incr got);
  ignore (Channel.send ch ());
  Channel.fail ch;
  (* In-flight message dies with the channel epoch. *)
  check Alcotest.bool "send on dead channel" false (Channel.send ch ());
  Engine.run e;
  check Alcotest.int "nothing delivered" 0 !got;
  check Alcotest.int "drops counted" 2 (Channel.dropped ch);
  Channel.repair ch;
  ignore (Channel.send ch ());
  Engine.run e;
  check Alcotest.int "delivered after repair" 1 !got

let test_channel_no_receiver () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:Time.zero ~name:"c" () in
  ignore (Channel.send ch ());
  Engine.run e;
  check Alcotest.int "dropped without receiver" 1 (Channel.dropped ch)

let () =
  Alcotest.run "openflow"
    [
      ( "ofmatch",
        [
          Alcotest.test_case "any" `Quick test_match_any;
          Alcotest.test_case "exact pair" `Quick test_match_exact_pair;
          Alcotest.test_case "microflow" `Quick test_match_of_eth_microflow;
          Alcotest.test_case "ip pins vs arp" `Quick test_match_ip_pins_vs_arp;
          Alcotest.test_case "vlan" `Quick test_match_vlan;
          Alcotest.test_case "subsumes" `Quick test_subsumes;
          test_match_equal;
          Alcotest.test_case "pp shows ports" `Quick test_match_pp;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "priority" `Quick test_table_priority;
          Alcotest.test_case "replace same match" `Quick test_table_replace_same_match;
          Alcotest.test_case "idle timeout" `Quick test_table_idle_timeout;
          Alcotest.test_case "hard timeout" `Quick test_table_hard_timeout;
          Alcotest.test_case "sweep" `Quick test_table_sweep;
          Alcotest.test_case "capacity eviction" `Quick test_table_capacity_eviction;
          Alcotest.test_case "remove matching" `Quick test_table_remove_matching;
          Alcotest.test_case "counters" `Quick test_table_counters;
          test_table_model_based;
        ] );
      ("message", [ Alcotest.test_case "helpers" `Quick test_message_helpers ]);
      ( "channel",
        [
          Alcotest.test_case "delivery latency" `Quick test_channel_delivery_latency;
          Alcotest.test_case "FIFO under jitter" `Quick test_channel_fifo_under_jitter;
          Alcotest.test_case "failure/repair" `Quick test_channel_failure;
          Alcotest.test_case "no receiver" `Quick test_channel_no_receiver;
        ] );
    ]
