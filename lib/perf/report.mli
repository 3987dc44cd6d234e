(** Schema-versioned serialization of bench results
    ([BENCH_lazyctrl.json]).

    Schema v4:
    {v
    { "schema_version": 4,
      "suite": "lazyctrl-bench",
      "host_cores": 4,
      "benchmarks": [
        { "name": "engine-event",
          "ops_per_sec": 1.0e7,
          "ns_per_op": 100.0,
          "alloc_bytes_per_op": 0.0,
          "minor_words_per_op": 0.0,
          "events_fired": 400000 } ] }
    v}

    [host_cores] ([Domain.recommended_domain_count ()]) records the
    machine the run happened on; no gate reads it.

    Readers reject unknown versions rather than best-effort parsing
    them — the compare gate must never pass on misread numbers. *)

val schema_version : int

val to_string : Measure.result list -> string

val of_string : string -> (Measure.result list, string) result

val load : string -> (Measure.result list, string) result
(** Read and decode a report file; [Error] includes the path. *)

val save : string -> Measure.result list -> unit
