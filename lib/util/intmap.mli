(** Open-addressed int-keyed map with allocation-free lookup.

    [Hashtbl.find_opt] allocates a fresh [Some] per hit; here each slot
    stores its binding as an ['a option] built once at insertion and
    {!find} returns that stored option, so lookups allocate nothing.
    Built for the per-packet L-FIB probes flagged by the H00x hot-path
    budget's calibration check.

    Keys [min_int] and [min_int + 1] are reserved internal sentinels;
    passing either raises [Invalid_argument]. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 16) is rounded up to a power of two. *)

val length : 'a t -> int

val find : 'a t -> int -> 'a option
(** Allocation-free: returns the option boxed at insertion time. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Insert or overwrite. *)

val remove : 'a t -> int -> unit
(** No-op if the key is absent. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Visits every binding in slot order, which follows the hash: callers
    must not let that order reach a result.  [f] must not insert or
    remove keys. *)
