(** The repo's one JSON module: value type, printer, parser and
    accessors for flight-recorder traces, bench reports and lint
    reports.

    Output is byte-deterministic: object fields print in exactly the
    order given, [Int] prints in decimal, an integral [Float] below
    [1e15] prints as [%.0f], and any other [Float] prints as the
    shortest of [%.12g] / [%.17g] that reads back exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Without [indent], compact ([{"k":v}], no whitespace, no newline).
    With it, one item per line, nested [indent] spaces per level,
    [": "] after keys and a trailing newline.  Bytes [>= 0x80] print
    raw; control bytes print as [\u00XX].
    @raise Invalid_argument on a NaN or infinite [Float]. *)

val to_buffer : Buffer.t -> t -> unit
(** Compact rendering, appended to the buffer. *)

val of_string : string -> (t, string) result
(** Parses one JSON value; trailing whitespace is allowed, anything else
    after the value is an error.  A number without [.]/[e]/[E] is an
    [Int] (an error when out of range); any other number is a [Float]
    (an error when it overflows).  A [\u] escape at or above [0x80] is
    an error.  [Error] carries a message with the byte offset. *)

val member : string -> t -> t option
(** First binding of the field in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
val to_float : t -> float option
(** Accepts [Int] too: integral numbers read back as [Int]. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
