(** CRC-32 (IEEE 802.3 polynomial), table-driven, with streaming fast
    paths.

    Used to checksum log entries; the NICFS validation stage recomputes
    it over fetched chunks, which is part of the real computational load
    offloaded to the SmartNIC.  The internal register is a native [int]
    (Int32 arithmetic boxes in OCaml); the [int32] type survives at the
    API edges only. *)

val bytes : Bytes.t -> int32
(** Checksum of a whole buffer. *)

val string : string -> int32

val update : int32 -> Bytes.t -> pos:int -> len:int -> int32
(** Incremental: extend a running checksum. Start from [0l]. *)

val update_string : int32 -> string -> int32

val combine : int32 -> int32 -> int -> int32
(** [combine crc_a crc_b len_b] is the checksum of the concatenation
    [A ++ B] given [crc_a = crc A], [crc_b = crc B] and [len_b = |B|]
    — the classic GF(2)-matrix [crc32_combine], O(log len_b). *)

val update_zeros : int32 -> int -> int32
(** [update_zeros crc n] extends [crc] with [n] zero bytes: O(n) table
    steps for short runs, O(log n) matrix combines for long ones.
    Equals [update crc (Bytes.make n '\000') ~pos:0 ~len:n]. *)

val update_synth : int32 -> seed:int -> off:int -> len:int -> int32
(** Extend [crc] with a synthetic span (see {!Data.synth_word}),
    feeding the register directly from generator words — no buffer is
    materialized. *)

val update_data : int32 -> Data.t -> int32
(** Extend [crc] with a payload by streaming its slices: real spans use
    the table loop in place, zero runs the O(log n) operator, synthetic
    spans the direct word path. *)

val data : Data.t -> int32
(** Checksum of a payload; [data d = update_data 0l d]. *)

(** {1 Native-int register}

    The same checksum carried as a native [int] in [\[0, 2^32)] instead
    of a boxed [int32], for streaming encoders: folding a field into it
    allocates nothing.  The [update_*] functions above are these plus
    the conversions at either end. *)

val of_int32 : int32 -> int
val to_int32 : int -> int32

val fold_le : int -> int -> bytes:int -> int
(** [fold_le c v ~bytes] extends [c] with the low [bytes] bytes of [v],
    least significant first: a little-endian field.  [bytes = 8] folds
    [Int64.of_int v], sign extension included. *)

val fold_string : int -> string -> int

val fold_data : int -> Data.t -> int
(** [fold_data c d] is [of_int32 (update_data (to_int32 c) d)]. *)
