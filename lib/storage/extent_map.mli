(** Interval map from byte ranges to payloads: the building block for
    per-file extent trees (public PM) and the client-side update-log
    index (unpublished writes).

    Segments never overlap; inserting over existing segments splits or
    replaces them (last-writer-wins), slicing payloads as needed.  Each
    segment carries a caller tag (e.g. the log sequence number that
    produced it) so ranges can be selectively dropped on log reclaim.

    The segments live in one sorted, growable array.  Costs, for a map
    of [n] segments of which an operation overlaps [r]:
    - lookups ([find], [intersects]) are an O(log n) binary search and
      allocate at most an option;
    - [insert] and [remove_range] are O(log n + r) to find and drop the
      overlapped run, plus one blit of the segments after it: nothing
      moves for an append at or past {!end_offset}, O(n) moves for a
      write in the middle.  An append allocates 6 words, its segment
      and an option (and, when the array doubles, the new array);
    - [read_range] is O(log n + r) plus its piece list;
    - [remove_if] is one O(n) compacting pass;
    - [cardinal], [is_empty], [end_offset] and [mapped_bytes] are
      O(1); [depth] is arithmetic on [cardinal], no traversal. *)

type 'a t

type 'a segment = { start : int; data : Data.t; tag : 'a }
(** A mapped range [\[start, start + Data.length data)]. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool

val cardinal : 'a t -> int
(** Number of segments. *)

val depth : 'a t -> int
(** [floor (log2 cardinal)] (0 when at most one segment): models the
    traversal cost of a tree index over the same segments. *)

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
