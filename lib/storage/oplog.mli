(** Operational log: the client-private PM write log (§3.2).

    LibFS persists every file-system update as a log entry; NICFS later
    fetches, validates, publishes and replicates ranges of entries.
    Entries have a real binary serialization with a CRC so the
    validation stage performs genuine work, and the log enforces
    capacity so full-log back-pressure behaves as in the paper. *)

type op =
  | Create of { parent : int; name : string; inum : int; dir : bool }
  | Unlink of { parent : int; name : string; inum : int }
  | Rename of {
      src_parent : int;
      src_name : string;
      dst_parent : int;
      dst_name : string;
      inum : int;
    }
  | Write of { inum : int; offset : int; data : Data.t }
  | Truncate of { inum : int; size : int }

type entry = { seq : int; client : int; op : op; crc : int32 }

val make : seq:int -> client:int -> op -> entry
(** Build an entry, computing its checksum.  The header and op fields
    stream straight into the CRC register, so the cost is a table step
    per header byte plus the payload's: a real payload is checksummed
    in full (slice by slice, never flattened), a synthetic or zero one
    only through its 16-byte descriptor.  It allocates the entry (5
    words), its boxed crc (3) and the payload walk: a 4-word slice per
    real leaf, about 20 words for a synthetic descriptor. *)

val size : entry -> int
(** On-log size in bytes: fixed header plus payload. *)

val payload_size : op -> int
(** Bytes of file data carried (0 for metadata ops). *)

val is_metadata : op -> bool

val check : entry -> bool
(** Recompute and compare the checksum: the cost of {!make}, without
    the entry record. *)

val frame_crc : int32 -> entry -> int32
(** Fold one entry's wire bytes (including its crc trailer) into a
    running CRC32: [List.fold_left frame_crc 0l entries] is the
    end-to-end integrity trailer of a replication frame.  Payload bytes
    stream through the slice-aware CRC, so rope data never flattens;
    the cost is that of {!check} plus the 4-byte trailer. *)

val serialize : entry -> Bytes.t
(** Binary encoding (real payload bytes are embedded; synthetic
    payloads are encoded by descriptor). *)

val deserialize : Bytes.t -> (entry, string) result
(** Inverse of {!serialize}; checks magic and checksum. *)

val touches : op -> int list
(** Inodes read or written by the operation (validation needs this for
    lease checks, recovery for the history bitmap). *)

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> entry -> unit

(** The log container. *)
module Log : sig
  type t

  val create : capacity:int -> unit -> t
  (** [capacity] in bytes (the paper defaults to 512 MB per client). *)

  val append : t -> entry -> (unit, [ `Full ]) result
  (** Entries must arrive with consecutive [seq] numbers. *)

  val capacity : t -> int
  val used_bytes : t -> int
  val free_bytes : t -> int

  val head_seq : t -> int
  (** Sequence of the oldest retained entry; [last_seq t + 1] when
      empty. *)

  val last_seq : t -> int
  (** Sequence of the newest entry; 0 when no entry was ever appended. *)

  val entries_from : t -> seq:int -> max_bytes:int -> entry list
  (** Retained entries starting at [seq], greedily packed up to
      [max_bytes] (at least one entry if any is available). *)

  val find : t -> seq:int -> entry option

  val reclaim_upto : t -> seq:int -> int
  (** Drop entries with [entry.seq <= seq]; returns bytes freed. *)

  val iter : t -> (entry -> unit) -> unit
  (** Oldest to newest over retained entries. *)

  val remove_if : t -> (entry -> bool) -> int
  (** Remove every retained entry matching the predicate (selective
      invalidation: recovery drops only entries touching resynced
      inodes); returns how many were removed.  Sequence numbers of the
      survivors are unchanged, so the retained set may have gaps —
      [head_seq] becomes the seq of the oldest survivor. *)

  val tear_tail : t -> bool
  (** Fault injection: corrupt the newest retained record's CRC,
      simulating a torn PM write.  [false] when the log is empty. *)

  type scrub_result = { torn_truncated : int; quarantined : entry list }

  val scrub : t -> scrub_result
  (** Recovery-time per-record CRC scan.  An invalid suffix is a torn
      tail: those records are truncated and [last_seq] rolls back so
      the writer re-appends them.  Invalid records with valid
      successors are bit-rot: they are quarantined (removed, leaving a
      gap) and returned so the caller can re-fetch pristine copies from
      the next chain replica and {!restore} them. *)

  val restore : t -> entry -> bool
  (** Re-insert a pristine replacement for a quarantined record at its
      sequence position.  [false] if the entry fails its own CRC, lies
      beyond [last_seq], or its seq is already present. *)
end
