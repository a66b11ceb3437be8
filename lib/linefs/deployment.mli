(** LineFS cluster assembly: the paper's 3-node chain (primary,
    replica-1, replica-2) with one NICFS + kernel worker per node, plus
    client attachment on the primary. *)

open Sim

type node_rt = {
  node : Hw.Node.t;
  fs : Storage.Fs_state.t;
  kworker : Kworker.t;
  nicfs : Nicfs.t;
  dfs_host_cpu : Stats.Busy.t;
      (** Host CPU consumed by DFS work on this node (LibFS calls +
          kernel worker). *)
}

type t

val create :
  ?cfg:Hw.Config.t ->
  ?params:Params.t ->
  ?pipeline_parallelism:bool ->
  ?kworker_mode:Kworker.copy_mode ->
  ?dfs_prio:Hw.Cpu.prio ->
  ?compression:bool ->
  ?coalescing:bool ->
  ?monitor:bool ->
  ?apply_on_publish:bool ->
  nodes:int ->
  unit ->
  t
(** Build and start the cluster (process context required).
    [dfs_prio] is the scheduling priority of DFS host work (kernel
    worker and LibFS) relative to co-running applications. [monitor]
    starts each NICFS's kernel-worker failure detector (off by default
    so idle simulations quiesce). [apply_on_publish] makes every NICFS
    replay published entries into its [fs] (convergence checking).
    Each NICFS gets its own process group, so {!Nicfs.crash} can
    power-fail individual nodes. *)

val params : t -> Params.t
val node_count : t -> int
val node : t -> int -> node_rt
val primary : t -> node_rt
val replicas : t -> node_rt list

val rebuild_chain : t -> up:(int -> bool) -> unit
(** Reconfigure the replication chain over the nodes [up] reports
    usable (NIC or host fallback), in id order: rewire successors,
    shrink each survivor's ack-completion set to its live downstream,
    and re-evaluate the primary's outstanding ack sets so chunks
    waiting only on dead replicas complete.  Idempotent — safe to call
    on every cluster-manager service transition. *)

val add_client : t -> id:int -> Libfs.t
(** Attach a client process on the primary (its LibFS charges host CPU
    at [dfs_prio] and is accounted to the primary's [dfs_host_cpu]),
    backed by the primary's NICFS and registered with it. *)

val clients : t -> Libfs.t list

val note_service_change : t -> unit
(** Tell the clients their NICFS moved planes (crash-to-host-fallback
    or fail-back).  RPC endpoints retarget transparently, but pipeline
    kicks queued at the dead plane are lost — this fires a fresh kick
    per client so the NICFS re-chunks from its durable cursor. *)

val flush_all : t -> unit
(** Drain every client's pipelines (teardown barrier). *)

val stop : t -> unit
(** Stop monitors so the simulation can quiesce. *)

val replication_wire_bytes : t -> int
(** Bytes the primary shipped to its successor (post-compression). *)

val total_host_dfs_cpu : t -> Time.t
(** Sum of DFS host-CPU busy time across nodes. *)
