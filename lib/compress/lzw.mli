(** Lempel-Ziv-Welch compression (12-bit codes, packed).

    This is the algorithm NICFS runs in the optional compression stage
    of the replication pipeline (§5.4): real bytes in, real bytes out,
    so the Tencent Sort experiment measures genuine compressibility of
    its input records.

    The dictionary holds up to 4096 entries and freezes when full,
    which bounds memory and keeps the codec streaming-friendly.  The
    encoder's dictionary is a per-domain open-addressed table whose
    slots each pack generation, key and code into one int (a probe is
    one load; reuse across calls is a generation bump), plus a memo of
    each code's extension by a zero byte for zero runs.  Encoding and
    {!encoded_length_data} share one byte loop; the encoder packs bits
    into a worst-case-sized preallocated buffer and consumes payloads
    slice-by-slice without materializing them. *)

val encode : Bytes.t -> Bytes.t
(** Compress. Output starts with an 8-byte little-endian original
    length. *)

val decode : Bytes.t -> Bytes.t
(** Decompress; inverse of {!encode}. Raises [Invalid_argument] on
    malformed input. *)

val encode_data : Storage.Data.t -> Storage.Data.t
(** Compress a payload by streaming its slices: real spans are read in
    place, synthetic spans are fed from generator words, zero runs feed
    constant bytes — the payload is never materialized.  The output is
    byte-identical to [encode (Data.to_bytes d)]. *)

val encoded_length_data : Storage.Data.t -> int
(** Length in bytes of [encode_data d]'s output, computed by counting
    codes without packing or allocating any output — the zero-copy path
    NICFS uses to size wire transfers. *)

val decode_data : Storage.Data.t -> Storage.Data.t

val ratio : original:int -> compressed:int -> float
(** Space saved as a fraction: [1 - compressed/original]; 0 when the
    original is empty. *)
