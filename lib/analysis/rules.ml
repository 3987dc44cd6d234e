(* Rule identifiers and shared scoping knobs for the lint pass.

   Rule families (see README "Static analysis"):
   - D00x: determinism — anything that can make two runs of the simulator
     with the same seed diverge.
   - A00x: abstraction safety — polymorphic structural compare/equal/hash
     applied where a keyed module exports dedicated operations.
   - P00x: protocol invariants — the wheel failure-inference table and the
     controller/switch message grammar stay total and consistent.
   - E00x: interprocedural effects — nondeterminism reached *indirectly*
     through helpers, inferred over the cross-module call graph.
   - L00x: layering — the declared architecture spec, including the
     paper's control-plane separation (switch never leans on controller
     internals; the controller drives switches only through Proto).
   - X00x: interface hygiene — dead exports and missing .mli files.
   - H00x: hot-path allocation discipline — the code against the declared
     hot-path spec (Hotspec/Hotpath), cross-validated against measured
     minor-words-per-op budgets (Hotbudget). *)

let d_hashtbl_order = "D001-hashtbl-order"
let d_raw_random = "D002-raw-random"
let d_wall_clock = "D003-wall-clock"
let d_float_eq = "D004-float-eq"
let a_poly_compare = "A001-poly-compare"
let a_poly_hash = "A002-poly-hash"
let a_poly_eq = "A003-poly-eq"
let p_failover_table = "P001-failover-table"
let p_proto_coverage = "P002-proto-coverage"
let e_indirect_random = "E001-indirect-random"
let e_indirect_clock = "E002-indirect-clock"
let e_indirect_order = "E003-indirect-hashtbl-order"
let l_layering = "L001-layering"
let l_lazy_separation = "L002-lazy-separation"
let x_dead_export = "X001-dead-export"
let x_missing_mli = "X002-missing-mli"
let h_spec = "H000-hotpath-spec"
let h_hot_alloc = "H001-hot-alloc"
let h_hot_indirect = "H002-hot-indirect"
let h_hot_raise = "H003-hot-raise"
let h_alloc_calibration = "H004-alloc-calibration"
let h_alloc_budget = "H005-alloc-budget"

let all =
  [
    d_hashtbl_order;
    d_raw_random;
    d_wall_clock;
    d_float_eq;
    a_poly_compare;
    a_poly_hash;
    a_poly_eq;
    p_failover_table;
    p_proto_coverage;
    e_indirect_random;
    e_indirect_clock;
    e_indirect_order;
    l_layering;
    l_lazy_separation;
    x_dead_export;
    x_missing_mli;
    h_spec;
    h_hot_alloc;
    h_hot_indirect;
    h_hot_raise;
    h_alloc_calibration;
    h_alloc_budget;
  ]

let is_known r = List.exists (String.equal r) all

(* Rule families, selectable with the CLI's [--rules] flag.  The family of
   a rule is the leading letter of its identifier; "allowlist" diagnostics
   (malformed entries) are not a family and always gate. *)
let families = [ "D"; "A"; "P"; "E"; "L"; "X"; "H" ]
let is_family f = List.exists (String.equal f) families

let family_of rule =
  if String.length rule > 0 then String.sub rule 0 1 else rule

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.equal (String.sub s (ls - lx) lx) suffix

(* The one module allowed to draw raw randomness: everything else must go
   through the seeded, splittable PRNG. *)
let random_sanctuary file = has_suffix ~suffix:"lib/util/prng.ml" file

(* The one module allowed to touch host clocks: simulated time.  (It does
   not today — simulated time is purely virtual — but the carve-out keeps
   the rule meaningful if a real-time bridge is ever added there.) *)
let clock_sanctuary file = has_suffix ~suffix:"lib/sim/time.ml" file

(* The one module whose raw hash-table folds are sanctioned: Det's
   key-snapshot primitives erase bucket order with an explicit sort, so
   the effect pass treats it as a barrier — reaching unordered iteration
   *through* Det is the endorsed route. *)
let order_sanctuary file = has_suffix ~suffix:"lib/util/det.ml" file

(* Record fields whose comparison with polymorphic [=] almost certainly
   wants the keyed module's [equal] instead. *)
let keyed_fields = [ "mac"; "ip"; "tenant"; "designated"; "origin"; "id" ]
