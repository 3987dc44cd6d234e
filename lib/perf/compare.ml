(* Regression gate: diff two bench reports on ops/sec and allocation.

   A target regresses when current ops/sec drops more than [threshold]
   (default 15%) below the baseline, or when its minor-words-per-op
   grows past baseline * (1 + threshold) + [alloc_slack] — the absolute
   slack keeps allocation-free targets (baseline ~0 words/op) from
   failing on measurement noise while still catching the first real
   boxed value that appears on such a path.  Targets missing from the
   current run also fail — deleting a benchmark must be an explicit
   baseline refresh, not a silent way to dodge the gate.  New targets
   (present only in the current run) pass with a note; they gate once
   the baseline is refreshed. *)

let default_threshold = 0.15

let alloc_slack = 0.5

type verdict = Ok_ | Improved | Regressed | New | Missing

type row = {
  name : string;
  baseline_ops : float option;
  current_ops : float option;
  ratio : float option;  (** current / baseline *)
  baseline_words : float option;
  current_words : float option;
  verdict : verdict;
}

type outcome = { rows : row list; failures : string list }

let verdict_label = function
  | Ok_ -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | New -> "new"
  | Missing -> "MISSING"

let find name (results : Measure.result list) =
  List.find_opt (fun (r : Measure.result) -> String.equal r.name name) results

let diff ?(threshold = default_threshold) ~baseline ~current () =
  if threshold <= 0.0 || threshold >= 1.0 then
    invalid_arg "Compare.diff: threshold outside (0,1)";
  let names =
    List.map (fun (r : Measure.result) -> r.name) baseline
    @ List.map (fun (r : Measure.result) -> r.name) current
    |> List.sort_uniq String.compare
  in
  let rows =
    List.map
      (fun name ->
        match (find name baseline, find name current) with
        | Some b, Some c ->
            let ratio = c.Measure.ops_per_sec /. b.Measure.ops_per_sec in
            let alloc_regressed =
              c.Measure.minor_words_per_op
              > (b.Measure.minor_words_per_op *. (1.0 +. threshold))
                +. alloc_slack
            in
            let verdict =
              if ratio < 1.0 -. threshold || alloc_regressed then Regressed
              else if ratio > 1.0 +. threshold then Improved
              else Ok_
            in
            {
              name;
              baseline_ops = Some b.Measure.ops_per_sec;
              current_ops = Some c.Measure.ops_per_sec;
              ratio = Some ratio;
              baseline_words = Some b.Measure.minor_words_per_op;
              current_words = Some c.Measure.minor_words_per_op;
              verdict;
            }
        | Some b, None ->
            {
              name;
              baseline_ops = Some b.Measure.ops_per_sec;
              current_ops = None;
              ratio = None;
              baseline_words = Some b.Measure.minor_words_per_op;
              current_words = None;
              verdict = Missing;
            }
        | None, Some c ->
            {
              name;
              baseline_ops = None;
              current_ops = Some c.Measure.ops_per_sec;
              ratio = None;
              baseline_words = None;
              current_words = Some c.Measure.minor_words_per_op;
              verdict = New;
            }
        | None, None -> assert false)
      names
  in
  let failures =
    List.concat_map
      (fun row ->
        match row.verdict with
        | Regressed ->
            let speed =
              match row.ratio with
              | Some r when r < 1.0 -. threshold ->
                  [
                    Printf.sprintf
                      "%s: %.0f -> %.0f ops/s (%.1f%% of baseline, threshold \
                       %.0f%%)"
                      row.name
                      (Option.value row.baseline_ops ~default:0.0)
                      (Option.value row.current_ops ~default:0.0)
                      (100.0 *. r)
                      (100.0 *. (1.0 -. threshold));
                  ]
              | _ -> []
            in
            let alloc =
              match (row.baseline_words, row.current_words) with
              | Some bw, Some cw
                when cw > (bw *. (1.0 +. threshold)) +. alloc_slack ->
                  [
                    Printf.sprintf
                      "%s: allocation grew %.2f -> %.2f minor words/op \
                       (limit %.2f)"
                      row.name bw cw
                      ((bw *. (1.0 +. threshold)) +. alloc_slack);
                  ]
              | _ -> []
            in
            speed @ alloc
        | Missing ->
            [
              Printf.sprintf
                "%s: present in baseline but absent from the current run"
                row.name;
            ]
        | Ok_ | Improved | New -> [])
      rows
  in
  { rows; failures }

let passed outcome = List.is_empty outcome.failures

let pp_row fmt row =
  let opt = function
    | Some v -> Printf.sprintf "%14.0f" v
    | None -> Printf.sprintf "%14s" "-"
  in
  let words = function
    | Some v -> Printf.sprintf "%9.2f" v
    | None -> Printf.sprintf "%9s" "-"
  in
  Format.fprintf fmt "%-16s %s %s  %s %s %s  %s" row.name
    (opt row.baseline_ops) (opt row.current_ops)
    (match row.ratio with
    | Some r -> Printf.sprintf "%+6.1f%%" (100.0 *. (r -. 1.0))
    | None -> "      -")
    (words row.baseline_words) (words row.current_words)
    (verdict_label row.verdict)

let pp fmt outcome =
  Format.fprintf fmt "%-16s %14s %14s  %7s %9s %9s  verdict@." "target"
    "baseline op/s" "current op/s" "delta" "base w/op" "cur w/op";
  List.iter (fun row -> Format.fprintf fmt "%a@." pp_row row) outcome.rows;
  if passed outcome then Format.fprintf fmt "compare: PASS@."
  else begin
    List.iter
      (fun msg -> Format.fprintf fmt "compare: FAIL %s@." msg)
      outcome.failures
  end
