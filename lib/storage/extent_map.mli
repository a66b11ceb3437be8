(** Interval map from byte ranges to payloads: the building block for
    per-file extent trees (public PM) and the client-side update-log
    index (unpublished writes).

    Segments never overlap; inserting over existing segments splits or
    replaces them (last-writer-wins), slicing payloads as needed.  Each
    segment carries a caller tag (e.g. the log sequence number that
    produced it) so ranges can be selectively dropped on log reclaim. *)

type 'a t

type 'a segment = { start : int; data : Data.t; tag : 'a }
(** A mapped range [\[start, start + Data.length data)]. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool

val cardinal : 'a t -> int
(** Number of segments. *)

val depth : 'a t -> int
(** ~log2(cardinal): models index traversal cost. *)

val insert : 'a t -> at:int -> Data.t -> 'a -> unit
(** Map [\[at, at + len)] to the payload, overwriting any overlap. *)

val find : 'a t -> int -> 'a segment option
(** The segment containing the given offset, if mapped. *)

val read_range :
  'a t -> pos:int -> len:int -> [ `Data of Data.t | `Hole of int ] list
(** The range's contents in order: payload slices where mapped,
    [`Hole n] for unmapped gaps of [n] bytes. *)

val remove_range : 'a t -> pos:int -> len:int -> unit
(** Unmap a range (segments straddling the boundary are trimmed). *)

val remove_if : 'a t -> ('a -> bool) -> unit
(** Drop all segments whose tag satisfies the predicate, in one pass. *)

val intersects : 'a t -> pos:int -> len:int -> bool
(** Whether any byte of [\[pos, pos + len)] is mapped: [read_range]
    would return a [`Data] piece.  [false] when [len <= 0].  One
    lookup: it builds no piece list and slices no payload. *)

val iter : 'a t -> ('a segment -> unit) -> unit
(** In offset order. *)

val fold : 'a t -> init:'b -> f:('b -> 'a segment -> 'b) -> 'b

val end_offset : 'a t -> int
(** One past the last mapped byte; 0 when empty. *)

val mapped_bytes : 'a t -> int
(** Total bytes covered by segments. *)

val clear : 'a t -> unit
