(* Controller-cluster acceptance: killing 1 of 3 members mid-run loses no
   packets, orphaned groups re-home within the failover window, laziness
   survives the fault, and the whole run is seeded-deterministic. Plus
   direct Plane tests for EASM failback and partition reconciliation. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_controller
open Lazyctrl_chaos
open Lazyctrl_cluster
module Prng = Lazyctrl_util.Prng
module Reliable = Lazyctrl_openflow.Reliable

let check = Alcotest.check

(* Lossless single-kill scenario: the acceptance configuration. *)
let kill_cfg =
  let base = Chaos_runner.default_config in
  {
    base with
    Chaos_runner.loss = 0.0;
    dup = 0.0;
    spec =
      {
        base.Chaos_runner.spec with
        Scenario.kinds = [ Fault.Controller_kill ];
        n_faults = 1;
      };
  }

let no_fault_cfg =
  {
    kill_cfg with
    Chaos_runner.spec = { kill_cfg.Chaos_runner.spec with Scenario.n_faults = 0 };
  }

let test_kill_one_of_three () =
  let r = Chaos_runner.run kill_cfg in
  check Alcotest.int "exactly one fault" 1 (List.length r.Chaos_runner.events);
  List.iter
    (fun (e : Fault.event) ->
      check Alcotest.bool "it is a controller kill" true
        (e.kind = Fault.Controller_kill))
    r.Chaos_runner.events;
  (* Zero-loss: every flow started under the fault window resolved and
     delivered its first packet; ARP retries outlive the failover window,
     and buffered misses drain to the adopting member. *)
  check Alcotest.int "every flow delivered"
    r.Chaos_runner.flows_started r.Chaos_runner.flows_delivered;
  check Alcotest.int "no resolution gave up" 0 r.Chaos_runner.resolutions_failed;
  check Alcotest.bool "traffic actually flowed" true
    (r.Chaos_runner.flows_started > 0);
  (* Exactly-once across every session in the cluster. *)
  check Alcotest.int "no duplicate delivery" 0
    r.Chaos_runner.reliability.Reliable.violations;
  (* The orphaned groups re-homed: all invariants, including [homed] and
     [disjoint-ownership], converged within the settle budget. *)
  List.iter
    (fun rep ->
      check Alcotest.bool
        (Printf.sprintf "invariant '%s' holds" rep.Invariant.name)
        true rep.Invariant.ok)
    r.Chaos_runner.reports;
  check Alcotest.bool "converged before the deadline" true
    (r.Chaos_runner.converged_after <> None);
  (* The failover machinery did fire: the survivors noticed the death,
     probed the orphans over their second spokes, inferred
     Controller_failure, and adopted. *)
  let m = r.Chaos_runner.member_stats in
  check Alcotest.bool "death detected" true (m.Member.peer_deaths > 0);
  check Alcotest.bool "revival detected" true (m.Member.peer_revivals > 0);
  check Alcotest.bool "second-spoke evidence inferred controller death" true
    (m.Member.controller_failure_verdicts > 0);
  check Alcotest.bool "orphans adopted" true (m.Member.adoptions > 0)

let test_involvement_stays_lazy () =
  let faulted = Chaos_runner.run kill_cfg in
  let calm = Chaos_runner.run no_fault_cfg in
  check Alcotest.bool "calm run is lazy" true (calm.Chaos_runner.involvement < 0.5);
  (* A single member kill must not meaningfully push traffic onto the
     controllers: the involvement ratio stays within 10 points of the
     no-fault run. *)
  check Alcotest.bool "involvement within 10% of the no-fault run" true
    (Float.abs (faulted.Chaos_runner.involvement -. calm.Chaos_runner.involvement)
    <= 0.10)

let test_double_run_byte_identical () =
  let r1 = Chaos_runner.run kill_cfg in
  let r2 = Chaos_runner.run kill_cfg in
  check Alcotest.string "byte-identical fingerprints"
    r1.Chaos_runner.fingerprint r2.Chaos_runner.fingerprint;
  check Alcotest.bool "fingerprint non-trivial" true
    (String.length r1.Chaos_runner.fingerprint > 200);
  let r3 = Chaos_runner.run { kill_cfg with Chaos_runner.seed = 43 } in
  check Alcotest.bool "different seed, different fingerprint" false
    (String.equal r1.Chaos_runner.fingerprint r3.Chaos_runner.fingerprint)

(* --- direct Plane tests ---------------------------------------------------- *)

let quick_controller_config =
  { (Runner.quick_controller_config true) with Controller.group_size_limit = 4 }

let make_plane ~seed =
  let topo =
    Placement.generate ~rng:(Prng.create seed)
      {
        Placement.n_switches = 16;
        n_tenants = 6;
        tenant_size_min = 8;
        tenant_size_max = 16;
        racks_per_tenant = 3;
        stray_fraction = 0.05;
      }
  in
  let plane =
    Plane.create
      ~params:(Lazyctrl_core.Params.with_seed seed Lazyctrl_core.Params.default)
      ~controller_config:quick_controller_config ~n_members:3 ~topo ()
  in
  Plane.bootstrap plane;
  plane

let owned_counts plane =
  List.map (fun k -> List.length (Member.owned (Plane.member plane k))) [ 0; 1; 2 ]

let run_to plane t = Plane.run plane ~until:t

(* Kill a member, let the survivors adopt, revive it, and check EASM hands
   groups back: after the failback no alive member is starved while
   another exceeds it by the migration gap. *)
let test_easm_failback () =
  let plane = make_plane ~seed:5 in
  run_to plane (Time.of_sec 20);
  let before = owned_counts plane in
  check Alcotest.bool "bootstrap spreads groups over all members" true
    (List.for_all (fun c -> c > 0) before);
  Plane.kill_member plane 1;
  run_to plane (Time.of_sec 60);
  check Alcotest.bool "dead member reports stopped" false
    (Member.is_running (Plane.member plane 1));
  check Alcotest.int "dead member owns nothing" 0
    (List.length (Member.owned (Plane.member plane 1)));
  let survivors =
    List.length (Member.owned (Plane.member plane 0))
    + List.length (Member.owned (Plane.member plane 2))
  in
  check Alcotest.int "survivors own everything"
    (List.fold_left ( + ) 0 before) survivors;
  Plane.revive_member plane 1;
  check Alcotest.bool "revived member reports running" true
    (Member.is_running (Plane.member plane 1));
  run_to plane (Time.of_min 4);
  let after = owned_counts plane in
  check Alcotest.int "nothing lost in the shuffle"
    (List.fold_left ( + ) 0 before)
    (List.fold_left ( + ) 0 after);
  let mx = List.fold_left max 0 after and mn = List.fold_left min 99 after in
  check Alcotest.bool "EASM rebalanced within the migration gap" true
    (mx - mn <= 2);
  check Alcotest.bool "handoffs were offered" true
    ((Plane.member_stats_sum plane).Member.handoffs_offered > 0)

(* Partition one member off the mesh: its switches keep running on their
   old master, the others adopt what they can see as orphaned; at heal
   time terms reconcile to a single owner per group. *)
let test_partition_heals () =
  let plane = make_plane ~seed:6 in
  run_to plane (Time.of_sec 20);
  Plane.partition_member plane 2;
  run_to plane (Time.of_sec 50);
  Plane.heal_member plane 2;
  run_to plane (Time.of_min 3);
  (* Every switch homed on an alive member holding a config for it, at
     the management plane's term. *)
  check Alcotest.int "no switch lost to the partition"
    (Topology.n_switches (Plane.topology plane))
    (List.length (Plane.live_switches plane));
  List.iter
    (fun (sid, es) ->
      check Alcotest.bool "edge_switch accessor agrees" true
        (Plane.edge_switch plane sid == es);
      let k = Plane.uplink_of plane sid in
      check Alcotest.bool "master alive" true
        (List.mem k (Plane.alive_members plane));
      check Alcotest.bool "master has the group config" true
        (Option.is_some
           (Controller.group_config_of (Plane.controller plane k) sid));
      check Alcotest.int "switch term agrees with the management plane"
        (Plane.term_of plane sid)
        (Lazyctrl_switch.Edge_switch.master_term es))
    (Plane.live_switches plane);
  (* No group claimed by two alive members after the heal. *)
  let owners = Hashtbl.create 16 in
  List.iter
    (fun k ->
      List.iter
        (fun (g, _) ->
          let gi = Ids.Group_id.to_int g in
          check Alcotest.bool "single owner per group" false
            (Hashtbl.mem owners gi);
          Hashtbl.replace owners gi k)
        (Member.owned (Plane.member plane k)))
    (Plane.alive_members plane);
  (* And every alive member's ownership view converged to those owners. *)
  List.iter
    (fun k ->
      List.iter
        (fun (v : Coord.view_entry) ->
          match Hashtbl.find_opt owners (Ids.Group_id.to_int v.Coord.v_group) with
          | Some owner ->
              check Alcotest.int "views agree on the owner" owner v.Coord.v_owner
          | None -> Alcotest.fail "view names an unowned group")
        (Member.view (Plane.member plane k)))
    (Plane.alive_members plane);
  check Alcotest.int "no duplicate delivery cluster-wide" 0
    (Plane.reliability_stats plane).Reliable.violations

(* The coordination grammar's accounting hooks: sizes are positive, the
   reliable envelope prices above its payload, and messages print. *)
let test_coord_wire_format () =
  let hello = Coord.Hello { from = 1; load = 3 } in
  let entry =
    {
      Coord.v_group = Ids.Group_id.of_int 2;
      v_term = 4;
      v_owner = 1;
      v_members = [ Ids.Switch_id.of_int 0; Ids.Switch_id.of_int 3 ];
    }
  in
  let claimed = Coord.Claimed { from = 1; entry } in
  let boxed = Coord.Seq { epoch = 1; seq = 7; payload = claimed } in
  List.iter
    (fun m ->
      check Alcotest.bool "size estimate positive" true (Coord.size_estimate m > 0);
      check Alcotest.bool "pp prints something" true
        (String.length (Format.asprintf "%a" Coord.pp m) > 0))
    [ hello; claimed; boxed ];
  check Alcotest.bool "envelope prices above its payload" true
    (Coord.size_estimate boxed > Coord.size_estimate claimed)

(* --- one data plane, two control sides ----------------------------------- *)

(* The cluster chaos setting with no faults and no loss: one placement and
   one flow list, spread over a 40 s window after a 30 s warm-up, run once
   on the single-controller Network and once on a 3-member Plane. *)
let delivered_on_both ~seed =
  let rng = Prng.create seed in
  let topo () =
    Placement.generate ~rng:(Prng.named rng "topo")
      (Runner.placement_spec ~n_switches:16 ~n_tenants:6)
  in
  let flows =
    let frng = Prng.named rng "flows" and topo = topo () in
    List.concat_map
      (fun tid ->
        let hosts = Array.of_list (Topology.tenant_hosts topo tid) in
        if Array.length hosts < 2 then []
        else
          List.filter_map
            (fun _ ->
              let a = Prng.choose frng hosts in
              let b = Prng.choose frng hosts in
              let after = Time.of_ms (Prng.int frng 40_000) in
              if Ids.Host_id.equal a.Host.id b.Host.id then None
              else Some (after, a.Host.id, b.Host.id))
            [ 1; 2; 3 ])
      (Topology.tenants topo)
  in
  let _, params = Runner.lossy_params ~seed ~loss:0.0 ~dup:0.0 ~reliable:true in
  let drive engine ~run ~start_flow =
    run ~until:(Time.of_sec 30);
    List.iter
      (fun (after, src, dst) ->
        ignore
          (Engine.schedule engine ~after (fun () ->
               start_flow ~src ~dst ~bytes:20_000 ~packets:10)))
      flows;
    run ~until:(Time.of_min 3)
  in
  let module N = Lazyctrl_core.Network in
  let net =
    N.create ~params ~controller_config:quick_controller_config ~mode:N.Lazy
      ~topo:(topo ()) ~horizon:(Time.of_hour 1) ()
  in
  N.bootstrap net ();
  drive (N.engine net) ~run:(N.run net) ~start_flow:(N.start_flow net);
  let plane =
    Plane.create ~params ~controller_config:quick_controller_config
      ~n_members:3 ~topo:(topo ()) ()
  in
  Plane.bootstrap plane;
  drive (Plane.engine plane) ~run:(Plane.run plane)
    ~start_flow:(Plane.start_flow plane);
  (List.length flows, N.host_model net, Plane.host_model plane)

let test_same_delivery_on_both_control_sides () =
  let module H = Lazyctrl_core.Host_model in
  List.iter
    (fun seed ->
      let n, single, cluster = delivered_on_both ~seed in
      let label what = Printf.sprintf "seed %d: %s" seed what in
      check Alcotest.bool (label "flows drawn") true (n > 0);
      check Alcotest.int (label "same flows started") (H.flows_started single)
        (H.flows_started cluster);
      List.iter
        (fun (side, hm) ->
          check Alcotest.int
            (label (side ^ " delivers every flow"))
            (H.flows_started hm) (H.flows_delivered hm);
          check Alcotest.int (label (side ^ " resolves every ARP")) 0
            (H.resolutions_failed hm))
        [ ("network", single); ("plane", cluster) ])
    [ 1; 2; 3; 42 ]

let () =
  Alcotest.run "cluster"
    [
      ( "acceptance",
        [
          Alcotest.test_case "kill 1 of 3: zero loss, re-homed" `Slow
            test_kill_one_of_three;
          Alcotest.test_case "involvement stays lazy" `Slow
            test_involvement_stays_lazy;
          Alcotest.test_case "double run byte-identical" `Slow
            test_double_run_byte_identical;
        ] );
      ( "plane",
        [
          Alcotest.test_case "EASM failback after revive" `Slow
            test_easm_failback;
          Alcotest.test_case "partition heals to one owner" `Slow
            test_partition_heals;
        ] );
      ( "coord",
        [ Alcotest.test_case "wire format accounting" `Quick test_coord_wire_format ] );
      ( "equivalence",
        [
          Alcotest.test_case "Network and Plane deliver the same flows" `Slow
            test_same_delivery_on_both_control_sides;
        ] );
    ]
