(** LibFS: the per-process client library (§3.2).

    Intercepts file-system calls, persists data and metadata to the
    client-private PM log with fast host cores, and serves reads from
    the in-memory update index or from public PM.  The same client
    library serves LineFS and the Assise baselines: what happens to the
    log afterwards — publication and replication — is the business of
    a {!backend}: the NICFS on the local SmartNIC for LineFS
    ({!Deployment}), host-side SharedFS digestion and chain
    replication for Assise. *)

open Sim

type t

(** The places where the systems behind the client differ.  Every
    function runs in the calling client thread. *)
type backend = {
  sysname : string;  (** For reports: "LineFS", "Assise", ... *)
  lease : t -> int -> unit;
      (** Hold a write lease on the inode before it is mutated. *)
  open_check : t -> string -> int -> unit;
      (** Permission check for opening [path] (resolved to [inum]);
          raises {!Dfs_intf.Fs_error} on denial. *)
  log_full : t -> unit;
      (** The log has no room for the next entry: get it drained.  The
          client then parks until {!reclaim} frees space. *)
  appended : t -> int -> unit;
      (** An entry of the given size was persisted to the log. *)
  fsync : t -> int -> unit;
      (** Block until every entry up to the given sequence number is
          durable and replicated. *)
}

val create :
  ?prio:Hw.Cpu.prio ->
  ?account:Stats.Busy.t ->
  params:Params.t ->
  node:Hw.Node.t ->
  backend:backend ->
  fs:Storage.Fs_state.t ->
  id:int ->
  unit ->
  t
(** Attach a client to its node. [account] receives the host CPU time
    LibFS spends (DFS cycles in client context — what Table 1 counts).
    [fs] is the node's public file-system state. *)

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

val reclaim : t -> upto_seq:int -> unit
(** Entries up to [upto_seq] are safe outside the log (published, or
    digested into public PM): reclaim their log space and drop them
    from the update index.  The cost follows what it frees: the log
    entries up to [upto_seq] and the inodes that still hold
    unpublished writes, not every file the client has written. *)

(** {1 For backends} *)

val cpu_release : t -> unit
(** Give up the calling thread's core before a blocking wait. *)

val ensure_lease :
  t -> int -> acquire:(unit -> [ `Granted | `Conflict ]) -> unit
(** Serve a write lease on the inode from the client's lease cache, or
    on a miss release the core and call [acquire] (the lease manager's
    RPC) until it grants one that no concurrent revocation overtook. *)

val revoke_lease : t -> inum:int -> unit
(** Drop a revoked lease from the cache once in-flight appends have
    finished. *)

(** {1 Counters} *)

val ops_issued : t -> int
val bytes_written : t -> int
val bytes_read : t -> int
val fsync_count : t -> int
val lease_hits : t -> int
val lease_misses : t -> int
