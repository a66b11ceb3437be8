(** LibFS: the per-process client library (§3.2).

    Intercepts file-system calls, persists data and metadata to the
    client-private PM log with fast host cores, serves reads from the
    in-memory update index or from public PM, and coordinates with the
    local NICFS: asynchronous pipeline kicks when a chunk's worth of
    updates has accumulated, a synchronous low-latency RPC on fsync,
    lease acquisition, and open permission checks. *)

open Sim

type t

val create :
  ?prio:Hw.Cpu.prio ->
  ?account:Stats.Busy.t ->
  params:Params.t ->
  node:Hw.Node.t ->
  nicfs:Nicfs.t ->
  fs:Storage.Fs_state.t ->
  id:int ->
  unit ->
  t
(** Attach a client to its node. [account] receives the host CPU time
    LibFS spends (DFS cycles in client context — what Table 1 counts).
    Registers the client and its log with the NICFS. *)

val id : t -> int
val ops : t -> Dfs_intf.ops
(** The POSIX-ish interface used by all workloads. *)

val log : t -> Storage.Oplog.Log.t

val set_entry_observer : (client:int -> Storage.Oplog.entry -> unit) -> unit
(** Install a hook called for every entry any LibFS persists, at append
    time — before asynchronous publication can reclaim it.  Test
    harnesses use this to record the full operation history for
    prefix-consistency replay.  Engine-local when installed from inside
    a simulation process (batched scenarios record independently);
    process-global fallback otherwise.  One at a time per scope. *)

val clear_entry_observer : unit -> unit

val last_seq : t -> int
(** Sequence number of the newest logged operation. *)

val pending_bytes : t -> int
(** Unreclaimed bytes in the private log. *)

val note_service_change : t -> unit
(** Tell the client its NICFS moved planes (crash-to-host-fallback or
    fail-back).  RPC endpoints retarget transparently, but pipeline
    kicks queued at the dead plane are lost — this fires a fresh kick
    so the NICFS re-chunks from its durable cursor. *)

(** {1 Counters} *)

val ops_issued : t -> int
val bytes_written : t -> int
val bytes_read : t -> int
val fsync_count : t -> int
val lease_hits : t -> int
val lease_misses : t -> int
