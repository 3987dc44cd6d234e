(* Schema-versioned bench report (BENCH_lazyctrl.json).

   Version history:
     1 — { schema_version, suite, benchmarks: [ { name, ops_per_sec,
          ns_per_op, alloc_bytes_per_op, events_fired } ] }
     2 — adds minor_words_per_op per benchmark, so the regression gate
          (Compare) and the H00x hot-path budgets (HOTPATH_budget) can
          gate allocation alongside throughput
     3 — adds top-level host_cores (the machine the run happened on)
          and per-benchmark domains / optional scaling_efficiency, so
          the multicore probes (packet-replay-dN) can carry their
          parallel-speedup measurement and Compare can gate it only on
          machines with enough cores for the gate to mean anything
     4 — drops per-benchmark domains / scaling_efficiency with the
          multicore probes they described; host_cores stays as a plain
          record of the measuring machine

   Readers reject any other version outright: a silent best-effort
   parse of a future schema would turn the regression gate into noise. *)

let schema_version = 4

let suite = "lazyctrl-bench"

let to_json (results : Measure.result list) =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("suite", Json.String suite);
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ( "benchmarks",
        Json.List
          (List.map
             (fun (r : Measure.result) ->
               Json.Obj
                 [
                   ("name", Json.String r.name);
                   ("ops_per_sec", Json.Float r.ops_per_sec);
                   ("ns_per_op", Json.Float r.ns_per_op);
                   ("alloc_bytes_per_op", Json.Float r.alloc_bytes_per_op);
                   ("minor_words_per_op", Json.Float r.minor_words_per_op);
                   ("events_fired", Json.Int r.events_fired);
                 ])
             results) );
    ]

let to_string results = Json.to_string ~indent:2 (to_json results)

let ( let* ) = Result.bind

let field_float name obj =
  match Option.bind (Json.member name obj) Json.to_float with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing or non-numeric field %S" name)

let decode_benchmark obj =
  match Option.bind (Json.member "name" obj) Json.to_str with
  | None -> Error "benchmark entry without a \"name\" string"
  | Some name ->
      let* ops_per_sec = field_float "ops_per_sec" obj in
      let* ns_per_op = field_float "ns_per_op" obj in
      let* alloc_bytes_per_op = field_float "alloc_bytes_per_op" obj in
      let* minor_words_per_op = field_float "minor_words_per_op" obj in
      let* events_fired = field_float "events_fired" obj in
      Ok
        {
          Measure.name;
          ops_per_sec;
          ns_per_op;
          alloc_bytes_per_op;
          minor_words_per_op;
          events_fired = int_of_float events_fired;
        }

let of_json json =
  let* version = field_float "schema_version" json in
  if int_of_float version <> schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %g (this reader knows %d)"
         version schema_version)
  else
    match Option.bind (Json.member "benchmarks" json) Json.to_list with
    | None -> Error "missing \"benchmarks\" array"
    | Some entries ->
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            let* r = decode_benchmark entry in
            Ok (r :: acc))
          (Ok []) entries
        |> Result.map List.rev

let of_string s =
  let* json = Json.of_string s in
  of_json json

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents ->
      Result.map_error (Printf.sprintf "%s: %s" path) (of_string contents)
  | exception Sys_error msg -> Error msg

let save path results =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string results))
