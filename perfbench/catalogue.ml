(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names; the smoke test checks that the two agree. *)

(* Untraced runs.  The simulated statistics (ctrl_*, fwd_latency_ms,
   flow_delivery_share) are deterministic for a seed: a change that only
   makes the simulator faster leaves them identical. *)
let end_to_end =
  [
    ("wall_s_per_sim_hour", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("flow_delivery_share", "share");
    ("ctrl_req_per_sim_s", "1/s");
    ("ctrl_bytes_per_sim_s", "B/s");
    ("fwd_latency_ms", "ms");
  ]

let setup_spans =
  [
    "topo.generate_s";
    "traffic.gen_s";
    "core.create_s";
    "traffic.intensity_s";
    "grouping.bootstrap_s";
    "core.replay_s";
  ]

(* Fixed simulated-time slices of the traced run: the traffic window in
   six equal slices, then the drain. *)
let n_slices = 7
let slice_fields = [ ("host_s", "s"); ("events", "count"); ("frames", "count");
                     ("minor_words", "words"); ("heap_words", "words") ]

let trace_kinds =
  List.init Lazyctrl_trace.Event.n_tags Lazyctrl_trace.Event.tag_label

let count names = List.map (fun n -> (n, "count")) names

(* Traced runs. *)
let per_layer =
  [
    ("sim.events", "count");
    ("sim.ns_per_event", "ns");
    ("sim.engine_ns_per_event", "ns");
    ("sim.pending_peak", "count");
    ("sim.minor_words_per_event", "words");
  ]
  @ count
      [
        "switch.packets_from_hosts";
        "switch.lfib_handled";
        "switch.gfib_handled";
        "switch.flow_table_handled";
        "switch.punted";
      ]
  @ [ ("switch.fast_path_share", "share") ]
  @ count
      [
        "switch.gfib_fp_drops";
        "switch.gfib_duplicates";
        "switch.keepalives_sent";
        "switch.adverts_sent";
        "switch.buffer_pool.stored";
        "switch.buffer_pool.full_fallbacks";
        "channel.frames_sent";
      ]
  @ [
      ("channel.bytes_sent", "B");
      ("channel.frames_dropped", "count");
      ("wire.bytes_per_frame", "B");
      ("wire.encode_ns_per_frame", "ns");
      ("wire.decode_ns_per_frame", "ns");
      ("wire.est_share", "share");
    ]
  @ count
      [
        "reliable.data_sent";
        "reliable.acks_sent";
        "reliable.retransmits";
      ]
  @ [ ("reliable.payload_bytes", "B"); ("reliable.violations", "count") ]
  @ [
      ("flow_table.lookups", "count");
      ("flow_table.hit_share", "share");
      ("flow_table.installs", "count");
      ("flow_table.evictions", "count");
    ]
  @ count
      [
        "controller.requests";
        "controller.packet_ins";
        "controller.arp_escalations";
        "controller.state_reports";
        "controller.flow_mods_sent";
        "controller.grouping_updates";
        "controller.full_regroups";
        "of_controller.packet_ins";
        "of_controller.flow_mods_sent";
        "of_controller.floods";
      ]
  @ List.map (fun n -> (n, "s")) setup_spans
  @ count
      [
        "host_model.flows_started";
        "host_model.flows_delivered";
        "host_model.arp_requests_sent";
        "host_model.resolutions_failed";
      ]
  @ [ ("host_model.flow_loss_share", "share") ]
  @ [
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words", "words");
    ]
  @ [
      ("trace.overhead_share", "share");
      ("trace.recorded", "count");
      ("trace.dropped", "count");
    ]
  @ count (List.map (fun k -> "trace.events." ^ k) trace_kinds)
  @ count [ "laziness.local"; "laziness.gossip"; "laziness.controller" ]
  @ [
      ("laziness.controller_ratio", "share");
      ("ledger.engine_share", "share");
      ("ledger.unattributed_share", "share");
    ]
  @ List.concat
      (List.init n_slices (fun k ->
           List.map
             (fun (f, u) -> (Printf.sprintf "slice.%d.%s" k f, u))
             slice_fields))
