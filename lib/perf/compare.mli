(** Bench regression gate: diff two {!Report}s on ops/sec and
    minor-words-per-op.

    A target fails when its current ops/sec is more than [threshold]
    (default 0.15) below baseline, when its minor-words-per-op exceeds
    baseline * (1 + threshold) + {!alloc_slack}, or when it vanished
    from the current run.  Targets new in the current run pass with
    verdict {!New}. *)

val default_threshold : float

val alloc_slack : float
(** Absolute minor-words-per-op headroom on top of the relative
    threshold, so allocation-free baselines (~0 words/op) tolerate
    measurement noise but still fail on the first real boxed value. *)

type verdict = Ok_ | Improved | Regressed | New | Missing

type row = {
  name : string;
  baseline_ops : float option;
  current_ops : float option;
  ratio : float option;  (** current / baseline *)
  baseline_words : float option;  (** minor words/op in the baseline *)
  current_words : float option;  (** minor words/op in the current run *)
  verdict : verdict;
}

type outcome = { rows : row list; failures : string list }

val diff :
  ?threshold:float ->
  baseline:Measure.result list ->
  current:Measure.result list ->
  unit ->
  outcome
(** @raise Invalid_argument if [threshold] is outside (0,1). *)

val passed : outcome -> bool

val verdict_label : verdict -> string

val pp_row : Format.formatter -> row -> unit

val pp : Format.formatter -> outcome -> unit
(** Full table plus a final PASS/FAIL line. *)
