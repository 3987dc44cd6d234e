open Lazyctrl_net
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core
module Sid = Ids.Switch_id

type report = { name : string; ok : bool; detail : string }

let pp_report fmt r =
  Format.fprintf fmt "[%s] %s%s"
    (if r.ok then "ok" else "FAIL")
    r.name
    (if r.detail = "" then "" else ": " ^ r.detail)

let all_ok = List.for_all (fun r -> r.ok)

let sorted_keys keys = List.sort_uniq Proto.host_key_compare keys

(* C-LIB row of every live switch equals that switch's L-FIB. Rows of dead
   switches are stale by definition and skipped. *)
let check_clib controller live =
  let clib = Controller.clib controller in
  let bad =
    List.filter_map
      (fun (sw, es) ->
        let expected = sorted_keys (Lfib.all_keys (Edge_switch.lfib es)) in
        let got = sorted_keys (Clib.row clib sw) in
        if List.equal Proto.host_key_equal expected got then None
        else
          Some
            (Printf.sprintf "sw%d(%d!=%d)" (Sid.to_int sw) (List.length got)
               (List.length expected)))
      live
  in
  {
    name = "clib = union of live L-FIBs";
    ok = List.is_empty bad;
    detail = String.concat " " bad;
  }

(* No Bloom false negative: within a group, every live member's G-FIB must
   name every other live member as a candidate for each of that member's
   hosts. (False positives are expected; false negatives never are.) *)
let check_bloom live =
  let live_up sw = List.exists (fun (s, _) -> Sid.equal s sw) live in
  let missing = ref [] in
  List.iter
    (fun (sw, es) ->
      match Edge_switch.group es with
      | None -> ()
      | Some cfg ->
          List.iter
            (fun peer ->
              if (not (Sid.equal peer sw)) && live_up peer then
                match List.find_opt (fun (s, _) -> Sid.equal s peer) live with
                | None -> ()
                | Some (_, pes) ->
                    let gfib = Edge_switch.gfib es in
                    List.iter
                      (fun (k : Proto.host_key) ->
                        let found_mac =
                          List.exists (Sid.equal peer)
                            (Gfib.candidates_mac gfib k.Proto.mac)
                        and found_ip =
                          List.exists (Sid.equal peer)
                            (Gfib.candidates_ip gfib k.Proto.ip)
                        in
                        if not (found_mac && found_ip) then
                          missing :=
                            Printf.sprintf "sw%d!~sw%d" (Sid.to_int sw)
                              (Sid.to_int peer)
                            :: !missing)
                      (Lfib.all_keys (Edge_switch.lfib pes)))
            cfg.Proto.members)
    live;
  let bad = List.sort_uniq String.compare !missing in
  { name = "no Bloom false negative"; ok = List.is_empty bad; detail = String.concat " " bad }

let check_grouped live =
  let bad =
    List.filter_map
      (fun (sw, es) ->
        if Option.is_none (Edge_switch.group es) then
          Some (Printf.sprintf "sw%d" (Sid.to_int sw))
        else None)
      live
  in
  { name = "every live switch grouped"; ok = List.is_empty bad; detail = String.concat " " bad }

let check_monitor controller =
  let bad =
    List.map
      (fun (sw, v) ->
        Format.asprintf "sw%d:%a" (Sid.to_int sw) Failover.pp_verdict v)
      (Failover.Monitor.sweep (Controller.monitor controller))
  in
  { name = "all monitors healthy"; ok = List.is_empty bad; detail = String.concat " " bad }

let check_exactly_once_stats (s : Lazyctrl_openflow.Reliable.stats) =
  {
    name = "no duplicate delivery";
    ok = s.Lazyctrl_openflow.Reliable.violations = 0;
    detail =
      (if s.Lazyctrl_openflow.Reliable.violations = 0 then ""
       else Printf.sprintf "%d violations" s.Lazyctrl_openflow.Reliable.violations);
  }

let check_exactly_once net =
  check_exactly_once_stats (Network.reliability_stats net)

let check_all net =
  match Network.lazy_controller net with
  | None -> []
  | Some controller ->
      let live = Network.live_switches net in
      [
        check_grouped live;
        check_clib controller live;
        check_bloom live;
        check_monitor controller;
        check_exactly_once net;
      ]
