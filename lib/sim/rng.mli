(** Deterministic pseudo-random number generator (splitmix64).

    Every simulation component draws from its own seeded stream so that
    experiments are reproducible bit-for-bit across runs. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. The same seed always yields the
    same stream. *)

val split : t -> t
(** [split t] derives an independent generator from [t]'s stream, for
    handing to a sub-component. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val byte : t -> char
(** Uniform byte. *)

val draw_bytes : t -> Bytes.t -> pos:int -> len:int -> unit
(** [draw_bytes t buf ~pos ~len] writes [len] draws of {!byte} into
    [buf] from [pos]: the same bytes and final state as [len] calls of
    [byte t].  Raises [Invalid_argument] on an out-of-bounds range. *)

val fill_bytes : t -> Bytes.t -> unit
(** Fill a buffer with pseudo-random bytes: whole 64-bit draws, then
    one {!byte} per trailing byte. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
