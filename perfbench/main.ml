(* The LazyCtrl simulator benchmark.

     main.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--tiny]
     main.exe --smoke BENCHMARK.json

   With --trace 0 it simulates the workload's instances untraced, each
   in a fresh process, and prints the end-to-end metrics; with --trace 1
   it runs instance 0 once untraced (sliced into fixed simulated-time
   slices, then probed for layer unit costs) and once under the flight
   recorder, and prints the per-layer metrics.  Either way it checks the
   simulated outputs and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  A failed check makes
   "correct" false and the exit code 1.

   --smoke runs every workload of BENCHMARK.json at tiny size in both
   modes and checks that each listed metric is printed with its unit
   and that every check passes.

   Child processes ([--child MODE]) do the simulating, so no run inherits
   another run's heap.  They print "c name value" for a simulated
   counter, "m name value" for a host measurement and "fail message"
   for a failed check. *)

open Lazyctrl_core
module Time = Lazyctrl_sim.Time
module Engine = Lazyctrl_sim.Engine
module Clock = Lazyctrl_perf.Clock
module Json = Lazyctrl_perf.Json
module Tracer = Lazyctrl_trace.Tracer
module Laziness = Lazyctrl_trace.Laziness

let default_seed = 42

let median = function
  | [] -> invalid_arg "median"
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l = List.fold_left ( +. ) 0. l /. Float.of_int (List.length l)
let mb_of_words w = Float.of_int (w * (Sys.word_size / 8)) /. 1e6

(* --- children --------------------------------------------------------------- *)

let emit name v = Printf.printf "m %s %.17g\n" name v
let emit_all = List.iter (fun (n, v) -> emit n v)
let emit_counters = List.iter (fun (n, v) -> Printf.printf "c %s %.17g\n" n v)
let emit_fails = List.iter (fun m -> Printf.printf "fail %s\n" m)

let gc_run f =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  f ();
  let run_s = Workload.seconds_since t0 in
  let g1 = Gc.quick_stat () in
  ( run_s,
    [
      ("gc.minor_collections", Float.of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("gc.major_collections", Float.of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("gc.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
      ("minor_words", Gc.minor_words () -. w0);
    ] )

let emit_run w s ~run_s ~gc =
  let counters = Workload.counters w s in
  emit_counters counters;
  emit_all s.spans;
  emit "setup_s" (Workload.setup_seconds s);
  emit "run_s" run_s;
  emit_all gc;
  let events = List.assoc "sim.events" counters in
  emit "sim.ns_per_event" (run_s *. 1e9 /. events);
  emit "sim.minor_words_per_event" (List.assoc "minor_words" gc /. events);
  emit "peak_heap_mb" (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
  emit_fails (Workload.check w s counters);
  counters

(* One untraced instance, set up and run to the horizon in one call. *)
let child_run w ~seed =
  let s = Workload.setup w ~seed in
  let run_s, gc = gc_run (fun () -> Network.run s.net ~until:(Workload.horizon w)) in
  ignore (emit_run w s ~run_s ~gc)

(* One untraced instance run slice by slice, sampling the engine's
   pending depth every simulated second, then the layer probes. *)
let child_sliced w ~seed =
  let s = Workload.setup w ~seed in
  let net = s.net in
  let engine = Network.engine net in
  let slice_ends =
    List.init (Catalogue.n_slices - 1) (fun k ->
        Time.of_ns (Time.to_ns w.Workload.traffic * (k + 1) / (Catalogue.n_slices - 1)))
    @ [ Workload.horizon w ]
  in
  let peak = ref 0 and depth_sum = ref 0 and samples = ref 0 in
  let slices = ref [] in
  let run_slices () =
    List.iter
      (fun stop ->
        let t0 = Clock.now_ns () in
        let e0 = Engine.events_processed engine in
        let f0 = (Network.link_stats net).Network.links_sent in
        let w0 = Gc.minor_words () in
        let rec step () =
          let now = Engine.now engine in
          if Time.(now < stop) then begin
            Network.run net ~until:(Time.min stop (Time.add now (Time.of_sec 1)));
            let p = Engine.pending engine in
            peak := max !peak p;
            depth_sum := !depth_sum + p;
            incr samples;
            step ()
          end
        in
        step ();
        slices :=
          [
            Workload.seconds_since t0;
            Float.of_int (Engine.events_processed engine - e0);
            Float.of_int ((Network.link_stats net).Network.links_sent - f0);
            Gc.minor_words () -. w0;
            Float.of_int (Gc.quick_stat ()).Gc.heap_words;
          ]
          :: !slices)
      slice_ends
  in
  let run_s, gc = gc_run run_slices in
  let counters = emit_run w s ~run_s ~gc in
  List.iteri
    (fun k values ->
      List.iter2
        (fun (f, _) v -> emit (Printf.sprintf "slice.%d.%s" k f) v)
        Catalogue.slice_fields values)
    (List.rev !slices);
  emit "sim.pending_peak" (Float.of_int !peak);
  let depth = !depth_sum / max 1 !samples in
  let engine_ns = Probe.engine_ns_per_event ~depth in
  let enc, dec = Probe.wire_ns_per_frame w.mode (fun n -> List.assoc n counters) in
  emit "sim.engine_ns_per_event" engine_ns;
  emit "wire.encode_ns_per_frame" enc;
  emit "wire.decode_ns_per_frame" dec

(* One instance under the flight recorder. *)
let child_traced w ~seed =
  let tracer = Tracer.create () in
  let s = Workload.setup ~tracer w ~seed in
  let run_s, gc = gc_run (fun () -> Network.run s.net ~until:(Workload.horizon w)) in
  let counters = emit_run w s ~run_s ~gc in
  let ctrl = List.assoc "network.ctrl_bytes_sent" counters in
  if not (Float.equal (Float.of_int (Tracer.ctrl_bytes tracer)) ctrl) then
    emit_fails
      [
        Printf.sprintf "%s: Tracer.ctrl_bytes %d <> Network.ctrl_bytes_sent %.0f"
          w.name (Tracer.ctrl_bytes tracer) ctrl;
      ];
  emit "trace.recorded" (Float.of_int (Tracer.recorded tracer));
  emit "trace.dropped" (Float.of_int (Tracer.dropped tracer));
  let counts = Tracer.counts tracer in
  List.iter
    (fun k ->
      emit ("trace.events." ^ k)
        (Float.of_int (Option.value ~default:0 (List.assoc_opt k counts))))
    Catalogue.trace_kinds;
  let z = Tracer.summary tracer in
  emit "laziness.local" (Float.of_int z.Laziness.local);
  emit "laziness.gossip" (Float.of_int z.gossip);
  emit "laziness.controller" (Float.of_int z.controller);
  emit "laziness.controller_ratio" (Laziness.controller_ratio z)

(* Set-up alone, [reps] times; the median of each phase. *)
let child_setup w ~seed =
  let reps = 5 in
  let runs = List.init reps (fun _ -> (Workload.setup w ~seed).spans) in
  List.iter
    (fun name -> emit name (median (List.map (List.assoc name) runs)))
    Catalogue.setup_spans

(* --- parent ----------------------------------------------------------------- *)

type result = {
  values : (string * float) list;
  counters : string list;  (** names of the simulated counters *)
  fails : string list;
}

let spawn ~tiny ~mode (w : Workload.t) ~seed =
  let args =
    [ Sys.executable_name; "--child"; mode; "--workload"; w.name; "--seed"; string_of_int seed ]
    @ if tiny then [ "--tiny" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let values = ref [] and counters = ref [] and fails = ref [] in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | "fail" :: _ -> fails := String.sub line 5 (String.length line - 5) :: !fails
       | [ kind; name; v ] ->
           values := (name, float_of_string v) :: !values;
           if String.equal kind "c" then counters := name :: !counters
       | _ -> failwith ("unexpected child output: " ^ line)
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      { values = List.rev !values; counters = List.rev !counters; fails = List.rev !fails }
  | _ -> failwith (Printf.sprintf "%s child for %s (seed %d) failed" mode w.name seed)

let get r name =
  match List.assoc_opt name r.values with
  | Some v -> v
  | None -> failwith ("child printed no " ^ name)

(* The simulated counters of two runs of one instance must be equal. *)
let same_counters ~what w a b =
  List.filter_map
    (fun n ->
      let x = get a n and y = get b n in
      if Float.equal x y then None
      else
        Some
          (Printf.sprintf "%s: %s differs between %s (%.17g vs %.17g)"
             w.Workload.name n what x y))
    a.counters

let end_to_end ~tiny ~seconds (w : Workload.t) ~seed =
  let t0 = Clock.now_ns () in
  let k = w.instances in
  let seeds = Array.init k (fun i -> Workload.instance_seed ~seed i) in
  let first = Array.map (fun s -> spawn ~tiny ~mode:"run" w ~seed:s) seeds in
  let times = Array.map (fun r -> [ get r "run_s" ]) first in
  let fails = ref (List.concat_map (fun r -> r.fails) (Array.to_list first)) in
  (* Repeat instances round-robin while the time allows; a repeat must
     reproduce its instance's counters. *)
  let per_rep = Workload.seconds_since t0 /. Float.of_int k in
  let rec again j =
    if Workload.seconds_since t0 +. per_rep <= seconds then begin
      let i = j mod k in
      let r = spawn ~tiny ~mode:"run" w ~seed:seeds.(i) in
      fails := !fails @ r.fails @ same_counters ~what:"repeated runs" w first.(i) r;
      times.(i) <- get r "run_s" :: times.(i);
      again (j + 1)
    end
  in
  again 0;
  let firsts name = List.map (fun r -> get r name) (Array.to_list first) in
  let sum l = List.fold_left ( +. ) 0. l in
  let arrived = sum (firsts "traffic.flows") in
  let delivered = sum (firsts "host_model.flows_delivered") in
  let sim_hours = Float.of_int k *. Workload.sim_seconds w /. 3600. in
  Array.iteri
    (fun i r ->
      Printf.printf "instance %d (seed %d): run %s s, %.0f events, %.0f/%.0f flows\n"
        i seeds.(i)
        (String.concat "/" (List.rev_map (Printf.sprintf "%.3f") times.(i)))
        (get r "sim.events")
        (get r "host_model.flows_delivered") (get r "traffic.flows"))
    first;
  let metrics =
    [
      ("wall_s_per_sim_hour", sum (Array.to_list (Array.map median times)) /. sim_hours);
      (* Each instance sets up once, cold, in its own process; the
         inputs differ, so the mean is steadier than the median. *)
      ("setup_s", mean (firsts "setup_s"));
      ("peak_heap_mb", mean (firsts "peak_heap_mb"));
      ("flow_delivery_share", delivered /. arrived);
      ("ctrl_req_per_sim_s", mean (firsts "ctrl_req_per_sim_s"));
      ("ctrl_bytes_per_sim_s", mean (firsts "ctrl_bytes_per_sim_s"));
      ("fwd_latency_ms", mean (firsts "fwd_latency_ms"));
    ]
  in
  (metrics, Float.to_int arrived, Float.to_int (arrived -. delivered), !fails)

let per_layer ~tiny (w : Workload.t) ~seed =
  let setup = spawn ~tiny ~mode:"setup" w ~seed in
  let sliced = spawn ~tiny ~mode:"sliced" w ~seed in
  let traced = spawn ~tiny ~mode:"traced" w ~seed in
  let fails =
    sliced.fails @ traced.fails
    @ same_counters ~what:"the untraced and traced runs" w sliced traced
  in
  let run_s = get sliced "run_s" in
  let engine = get sliced "sim.engine_ns_per_event" *. get sliced "sim.events" *. 1e-9 /. run_s in
  let wire =
    ((get sliced "wire.encode_ns_per_frame" *. get sliced "channel.frames_sent")
    +. (get sliced "wire.decode_ns_per_frame" *. get sliced "channel.frames_delivered"))
    *. 1e-9 /. run_s
  in
  let derived =
    [
      ("trace.overhead_share", (get traced "run_s" /. run_s) -. 1.);
      ("wire.est_share", wire);
      ("ledger.engine_share", engine);
      ("ledger.unattributed_share", 1. -. engine -. wire);
    ]
  in
  let pick (name, _) =
    match List.assoc_opt name derived with
    | Some v -> (name, v)
    | None ->
        let from =
          if List.mem name Catalogue.setup_spans then setup
          else if List.mem_assoc name traced.values && not (List.mem_assoc name sliced.values)
          then traced
          else sliced
        in
        (name, get from name)
  in
  let metrics = List.map pick Catalogue.per_layer in
  Printf.printf "ledger of %s, instance 0 (seed %d), Network.run %.3f s:\n" w.name seed run_s;
  Printf.printf "  engine %.1f%%  wire %.1f%%  unattributed %.1f%%\n" (100. *. engine)
    (100. *. wire) (100. *. (1. -. engine -. wire));
  Printf.printf "  %-6s %9s %10s %9s %13s %11s\n" "slice" "host_s" "events" "frames" "minor_words" "heap_MB";
  for k = 0 to Catalogue.n_slices - 1 do
    let f field = get sliced (Printf.sprintf "slice.%d.%s" k field) in
    Printf.printf "  %-6d %9.3f %10.0f %9.0f %13.0f %11.1f\n" k (f "host_s") (f "events")
      (f "frames") (f "minor_words")
      (mb_of_words (Float.to_int (f "heap_words")))
  done;
  let arrived = get sliced "traffic.flows" in
  let delivered = get sliced "host_model.flows_delivered" in
  (metrics, Float.to_int arrived, Float.to_int (arrived -. delivered), fails)

let json_line ~correct ~attempted ~failed metrics =
  let units = Catalogue.end_to_end @ Catalogue.per_layer in
  let metric (name, v) =
    if not (Float.is_finite v) then failwith (name ^ " is not finite");
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (List.assoc name units)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let bench ~tiny ~seconds ~trace w ~seed =
  let w = if tiny then Workload.tiny w else w in
  if trace then per_layer ~tiny w ~seed else end_to_end ~tiny ~seconds w ~seed

(* --- smoke test --------------------------------------------------------------- *)

let smoke path =
  let json =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let list key =
    match Option.bind (Json.member key json) Json.to_list with
    | Some l -> l
    | None -> failwith (path ^ ": no " ^ key)
  in
  let str key o =
    match Option.bind (Json.member key o) Json.to_str with
    | Some s -> s
    | None -> failwith (path ^ ": entry without " ^ key)
  in
  let named key = List.map (fun o -> (str "name" o, str "unit" o)) (list key) in
  let ok = ref true in
  let expect cond msg =
    if not cond then begin
      ok := false;
      prerr_endline ("smoke: " ^ msg)
    end
  in
  List.iter
    (fun o ->
      let name = str "name" o in
      match Workload.find name with
      | None -> expect false ("unknown workload " ^ name)
      | Some w ->
          List.iter
            (fun (trace, listed) ->
              let metrics, attempted, _, fails =
                bench ~tiny:true ~seconds:1. ~trace w ~seed:default_seed
              in
              List.iter (fun m -> expect false m) fails;
              expect (attempted > 0) (name ^ ": no flow attempted");
              List.iter
                (fun (m, unit) ->
                  expect (List.mem_assoc m metrics) (Printf.sprintf "%s: %s not printed" name m);
                  let u = List.assoc_opt m (Catalogue.end_to_end @ Catalogue.per_layer) in
                  expect (u = Some unit) (Printf.sprintf "%s: %s has another unit" name m))
                listed;
              expect
                (List.length metrics = List.length listed)
                (Printf.sprintf "%s: prints %d metrics, %s lists %d" name
                   (List.length metrics) path (List.length listed)))
            [ (false, named "end_to_end"); (true, named "per_layer") ])
    (list "workloads");
  if !ok then print_endline "smoke: ok" else exit 1

(* --- command line ------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. in
  let trace = ref 0 and tiny = ref false and child = ref "" and smoke_path = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S time to spend repeating instances");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tiny", Arg.Set tiny, " run the workload at smoke-test size");
      ("--child", Arg.Set_string child, "MODE internal: run|sliced|traced|setup");
      ("--smoke", Arg.Set_string smoke_path, "FILE check every workload of FILE at tiny size");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !smoke_path <> "" then smoke !smoke_path
  else
    let w =
      match Workload.find !workload with
      | Some w -> w
      | None ->
          prerr_endline ("unknown workload " ^ !workload);
          exit 2
    in
    match !child with
    | "" ->
        let metrics, attempted, failed, fails =
          bench ~tiny:!tiny ~seconds:!seconds ~trace:(!trace = 1) w ~seed:!seed
        in
        List.iter (fun m -> prerr_endline ("check failed: " ^ m)) fails;
        let correct = fails = [] in
        print_endline (json_line ~correct ~attempted ~failed metrics);
        if not correct then exit 1
    | mode ->
        let w = if !tiny then Workload.tiny w else w in
        let seed = !seed in
        (match mode with
        | "run" -> child_run w ~seed
        | "sliced" -> child_sliced w ~seed
        | "traced" -> child_traced w ~seed
        | "setup" -> child_setup w ~seed
        | m ->
            prerr_endline ("unknown child mode " ^ m);
            exit 2)
