(** Tencent Sort (§5.4): parallel external sort used to evaluate
    data-path compression.

    Phase 1 (range partitioning): worker processes scan their share of
    the input records and append each record to the temporary file of
    its key range, then fsync.  Phase 2 (merge-sort): sort workers read
    the temporary files of their range, sort the records (a real,
    stable LSD radix sort of the records' offsets by their 10-byte key,
    five counting passes over 16-bit digits), and write the final
    output files.  The simulated CPU charge for the sort is the model's
    [n log2 n] compares, independent of how the host sorts.

    Input compressibility is controlled by the fraction of zero bytes
    in record payloads, like the modified gensort tool in the paper. *)

open Sim

type result = {
  elapsed : Time.t;
  partition_time : Time.t;
  sort_time : Time.t;
  records : int;
  output_bytes : int;
}

val run :
  ops:Linefs.Dfs_intf.ops ->
  node:Hw.Node.t ->
  records:int ->
  ?record_bytes:int ->
  ?partitions:int ->
  ?sorters:int ->
  zero_ratio:float ->
  seed:int ->
  unit ->
  result
(** Defaults: 100-byte records (10-byte key + 90-byte payload), 4
    partition and 4 sort workers as in §5.4.  Sorting CPU is charged on
    [node]'s host cores; file IO goes through [ops].  The output is
    verified to be sorted and complete. *)

val key_order : bytes -> record_bytes:int -> int array
(** [key_order flat ~record_bytes] is the offsets of the records packed
    in [flat], ordered by their 10-byte key (unsigned lexicographic);
    records with equal keys keep their order in [flat].  Raises
    [Invalid_argument] unless [flat] holds whole records of at least
    10 bytes. *)
