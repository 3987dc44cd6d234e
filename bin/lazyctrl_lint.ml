(* lazyctrl-lint: determinism & protocol-invariant checks for the
   simulator sources.  See README "Static analysis" for the rule list.

   Exit status: by default the tool only reports — it exits 0 whatever
   it finds, so report-generating pipelines (e.g. [make lint-json]) can
   archive the output of a failing tree. Pass [--check] to gate: exit 1
   on gating findings; exit 3 when the only problem is stale allowlist
   entries (distinct, so CI can say "prune the allowlist" rather than
   "fix the code"). Exit 2 on usage error. *)

let usage =
  "lazyctrl_lint [--root DIR] [--allow FILE] [--format text|json|sarif] \
   [--check] [--rules FAMILIES] [--list-rules] \
   [--hotpath-report [--budget FILE] [--measured FILE]]"

type format = Text | Json | Sarif

open Lazyctrl_analysis
module Json = Lazyctrl_util.Json

(* --- JSON and SARIF rendering --------------------------------------------- *)

let finding_json (f : Finding.t) =
  Json.Obj
    [
      ("file", Json.String f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("rule", Json.String f.rule);
      ("severity", Json.String (Finding.severity_string f.severity));
      ("message", Json.String f.message);
    ]

let findings_json findings = Json.List (List.map finding_json findings)

let report_json (r : Driver.report) =
  Json.Obj
    [
      ("findings", findings_json r.findings);
      ("suppressed", findings_json r.suppressed);
      ("stale_allowlist", findings_json r.stale);
      ( "callgraph_notes",
        Json.List
          (List.map
             (fun (file, note) ->
               Json.Obj [ ("file", Json.String file); ("note", Json.String note) ])
             r.callgraph_notes) );
      ( "parse_failures",
        Json.List (List.map (fun (file, _) -> Json.String file) r.parse_failures)
      );
      ("files_scanned", Json.Int r.files_scanned);
      ("clean", Json.Bool (Driver.clean r));
    ]

(* The static verdict per probe next to its committed budget and the
   measured minor-words-per-op ([_build/hotpath-report.json]). *)
let hotpath_json (r : Driver.hotpath_report) =
  let words = function None -> Json.Null | Some w -> Json.Float w in
  let probe (row : Hotbudget.row) =
    let entries =
      match
        List.find_opt
          (fun (p : Hotpath.probe_status) -> String.equal p.p_probe row.r_probe)
          r.hp_probes
      with
      | Some p -> p.p_entries
      | None -> []
    in
    Json.Obj
      [
        ("probe", Json.String row.r_probe);
        ("entries", Json.List (List.map (fun e -> Json.String e) entries));
        ("static_alloc_sites", Json.Int row.r_static_sites);
        ("budget_words_per_op", words row.r_budget);
        ("measured_words_per_op", words row.r_measured);
        ("verdict", Json.String (Hotbudget.verdict_name row.r_verdict));
      ]
  in
  Json.Obj
    [
      ("probes", Json.List (List.map probe r.hp_rows));
      ("findings", findings_json r.hp_findings);
      ("suppressed", findings_json r.hp_suppressed);
      ("clean", Json.Bool (Driver.hotpath_clean r));
    ]

(* SARIF 2.1.0 for GitHub code scanning.  Only gating findings become
   results: suppressed findings already carry their justification in the
   allowlist, and stale entries are an allowlist-maintenance concern,
   not a code finding. *)
let sarif_json findings =
  let text s = Json.Obj [ ("text", Json.String s) ] in
  let rule (m : Sarif.meta) =
    Json.Obj
      [
        ("id", Json.String m.m_id);
        ("name", Json.String m.m_name);
        ("shortDescription", text m.m_short);
        ("fullDescription", text m.m_help);
        ("help", text m.m_help);
      ]
  in
  let result (f : Finding.t) =
    let location =
      Json.Obj
        [
          ( "artifactLocation",
            Json.Obj
              [ ("uri", Json.String f.file); ("uriBaseId", Json.String "SRCROOT") ]
          );
          ( "region",
            Json.Obj
              [
                ("startLine", Json.Int (max 1 f.line));
                ("startColumn", Json.Int (f.col + 1));
              ] );
        ]
    in
    Json.Obj
      [
        ("ruleId", Json.String f.rule);
        ("level", Json.String (Finding.severity_string f.severity));
        ("message", text f.message);
        ("locations", Json.List [ Json.Obj [ ("physicalLocation", location) ] ]);
      ]
  in
  Json.Obj
    [
      ("$schema", Json.String "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.String "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.String "lazyctrl-lint");
                            ("rules", Json.List (List.map rule Sarif.catalog));
                          ] );
                    ] );
                ("results", Json.List (List.map result findings));
              ];
          ] );
    ]

let print_json v = print_string (Json.to_string ~indent:2 v)

let () =
  let root = ref "." in
  let allow = ref ".lazyctrl-lint-allow" in
  let format = ref Text in
  let check = ref false in
  let list_rules = ref false in
  let hotpath_report = ref false in
  let budget = ref "HOTPATH_budget" in
  let measured_file = ref None in
  let families = ref None in
  let set_format = function
    | "text" -> format := Text
    | "json" -> format := Json
    | "sarif" -> format := Sarif
    | other ->
        Printf.eprintf "unknown format '%s' (known: text, json, sarif)\n" other;
        exit 2
  in
  let set_families s =
    let fs =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun f -> not (String.equal f ""))
      |> List.map String.uppercase_ascii
    in
    if List.is_empty fs then begin
      Printf.eprintf "--rules needs at least one family (e.g. --rules E,L)\n";
      exit 2
    end;
    List.iter
      (fun f ->
        if not (Rules.is_family f) then begin
          Printf.eprintf "unknown rule family '%s' (known: %s)\n" f
            (String.concat "," Rules.families);
          exit 2
        end)
      fs;
    families := Some fs
  in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root to scan (default .)");
      ( "--allow",
        Arg.Set_string allow,
        "FILE allowlist path (default .lazyctrl-lint-allow, relative to \
         --root)" );
      ("--json", Arg.Unit (fun () -> format := Json), " emit the report as JSON (same as --format json)");
      ( "--format",
        Arg.String set_format,
        "FMT output format: text (default), json, or sarif (SARIF 2.1.0 \
         for code scanning)" );
      ( "--check",
        Arg.Set check,
        " gate: exit 1 on gating findings, exit 3 on stale allowlist \
         entries only (default: report only, exit 0)" );
      ( "--rules",
        Arg.String set_families,
        "FAMILIES comma-separated rule families to run (subset of \
         D,A,P,E,L,X,H; default all)" );
      ("--list-rules", Arg.Set list_rules, " list rule identifiers and exit");
      ( "--hotpath-report",
        Arg.Set hotpath_report,
        " emit the H00x hot-path cross-validation report and exit \
         (--format json or sarif; with --check, exit 1 on findings)" );
      ( "--budget",
        Arg.Set_string budget,
        "FILE minor-words-per-op budget file for --hotpath-report \
         (default HOTPATH_budget, relative to --root)" );
      ( "--measured",
        Arg.String (fun f -> measured_file := Some f),
        "FILE lib/perf report with measured hotpath probes (from \
         bench/main.exe --quick hotpath --json FILE); omitting it makes \
         every probe an unmeasured finding" );
    ]
  in
  Arg.parse spec
    (fun anon ->
      Printf.eprintf "unexpected argument %s\n%s\n" anon usage;
      exit 2)
    usage;
  if !list_rules then begin
    List.iter print_endline Rules.all;
    exit 0
  end;
  let allow_path =
    if Filename.is_relative !allow then Filename.concat !root !allow
    else !allow
  in
  if !hotpath_report then begin
    let measured =
      match !measured_file with
      | None -> []
      | Some file -> (
          match Lazyctrl_perf.Report.load file with
          | Ok results ->
              List.map
                (fun (r : Lazyctrl_perf.Measure.result) ->
                  (r.Lazyctrl_perf.Measure.name,
                   r.Lazyctrl_perf.Measure.minor_words_per_op))
                results
          | Error msg ->
              Printf.eprintf "cannot read measured report %s: %s\n" file msg;
              exit 2)
    in
    let r =
      Driver.hotpath_check ~root:!root ~allow_path ~budget_path:!budget
        ~measured ()
    in
    (match !format with
    | Sarif -> print_json (sarif_json r.Driver.hp_findings)
    | Json | Text -> print_json (hotpath_json r));
    exit (if !check && not (Driver.hotpath_clean r) then 1 else 0)
  end;
  let report = Driver.run ?families:!families ~root:!root ~allow_path () in
  (match !format with
  | Json -> print_json (report_json report)
  | Sarif -> print_json (sarif_json report.Driver.findings)
  | Text ->
      List.iter
        (fun f -> print_endline (Finding.to_string f))
        report.Driver.findings;
      List.iter
        (fun f -> print_endline (Finding.to_string f))
        report.Driver.stale;
      List.iter
        (fun (file, _) ->
          Printf.printf
            "%s: note: file did not parse; token-level rules applied\n" file)
        report.Driver.parse_failures;
      List.iter
        (fun (file, note) -> Printf.printf "%s: note: %s\n" file note)
        report.Driver.callgraph_notes;
      Printf.printf
        "lazyctrl-lint: %d file(s) scanned, %d finding(s), %d suppressed by \
         allowlist, %d stale allowlist entr(ies)\n"
        report.Driver.files_scanned
        (List.length report.Driver.findings)
        (List.length report.Driver.suppressed)
        (List.length report.Driver.stale));
  let code =
    if not !check then 0
    else if not (Driver.clean report) then 1
    else if not (List.is_empty report.Driver.stale) then 3
    else 0
  in
  exit code
