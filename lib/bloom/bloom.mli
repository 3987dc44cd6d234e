(** Bloom filters, as used for the G-FIB.

    Each edge switch's G-FIB holds one filter per peer switch in its local
    control group, each summarizing that peer's L-FIB (the set of MAC
    addresses attached to it). Keys are arbitrary 63-bit integers (we use
    {!Lazyctrl_net.Mac.to_int}); membership uses Kirsch–Mitzenmacher
    double hashing, so only two independent 64-bit hashes are computed per
    operation regardless of [k].

    A {!Counting} variant supports deletion and backs the live, mutable
    side of the state-advertisement pipeline; the plain filter is the
    compact replica actually shipped to peers. *)

type t

val create : ?hashes:int -> bits:int -> unit -> t
(** [create ~bits ()] makes an empty filter of [bits] bits (rounded up to a
    multiple of 64). Default [hashes] is 4, the classic choice for
    ~16 bits/entry tables.
    @raise Invalid_argument if [bits <= 0] or [hashes <= 0]. *)

val create_for : expected:int -> fp_rate:float -> t
(** Optimal sizing: picks [bits] and [hashes] for [expected] entries at the
    target false-positive rate. *)

val add : t -> int -> unit
val mem : t -> int -> bool
(** No false negatives; false positives at the designed rate. *)

val clear : t -> unit
val bits : t -> int
val hashes : t -> int

val fill_ratio : t -> float
(** Fraction of bits set. *)

val estimated_entries : t -> float
(** Maximum-likelihood estimate of the number of distinct keys added, from
    the fill ratio. *)

val estimated_fp_rate : t -> float
(** [(fill_ratio)^hashes] — the probability a random absent key tests
    positive given the current fill. *)

val union : t -> t -> t
(** Bitwise or. @raise Invalid_argument on mismatched geometry. *)

val copy : t -> t

val of_list : ?hashes:int -> bits:int -> int list -> t

val to_bytes : t -> bytes
(** Geometry header plus the bit array; the wire form disseminated over
    peer links. *)

val of_bytes : bytes -> t
(** @raise Invalid_argument on malformed input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val optimal_bits : expected:int -> fp_rate:float -> int
(** [m = ceil (-n ln p / (ln 2)^2)]. *)

val optimal_hashes : bits:int -> expected:int -> int
(** [k = round (m/n ln 2)], at least 1. *)

module Counting : sig
  (** Counting Bloom filter with saturating 8-bit counters. *)

  type plain = t

  type t

  val create : ?hashes:int -> counters:int -> unit -> t
  val add : t -> int -> unit

  val remove : t -> int -> unit
  (** Decrements the key's counters; saturated counters stay put (standard
      counting-BF semantics — saturation can leave residue). *)

  val mem : t -> int -> bool
  val clear : t -> unit

  val counters : t -> int
  (** Number of counters, after rounding up to a multiple of 64; equal to
      the {!bits} of {!to_plain}'s result, without building it. *)

  val to_plain : t -> plain
  (** Project to a plain filter of the same geometry (counter > 0 ⇒ bit
      set); this is what gets shipped to peers. *)
end
