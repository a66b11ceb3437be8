(** Rack-scale LineFS: N nodes as independent replication groups with a
    partitioned namespace.

    A rack of [nodes] machines is organized as [nodes / group_size]
    replica groups, each a full {!Deployment} chain (primary plus
    replicas) exactly like the paper's 3-node cell.  Files are placed
    across groups by their parent directory ({!place}), the way a
    cluster manager assigns directories to replica groups: one
    directory's files share a group, so leases and pipeline state stay
    where the files live.

    Groups are operationally independent — no replication, lease or
    recovery traffic crosses a group boundary.  A rack therefore runs
    as a {!Sim.Batch} of its groups ({!run_batch}), one engine per
    group, with results identical at every domain count.  {!create}
    builds the same rack on one engine — the view that cross-checks the
    batch — and {!router} gives it one fd space over per-group
    clients. *)

type t
(** A rack whose groups all live on one engine. *)

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
  group_size:int ->
  unit ->
  t
(** [nodes] must be a positive multiple of [group_size].  Options are
    forwarded to every group's {!Deployment.create}.  Process context
    required. *)

val groups_of : nodes:int -> group_size:int -> int
(** Replica-group count of a [nodes]-node rack.  Raises
    [Invalid_argument] unless [nodes] is a positive multiple of
    [group_size]. *)

val run_batch :
  ?domains:int ->
  ?params:Params.t ->
  nodes:int ->
  group_size:int ->
  (groups:int -> group:int -> Deployment.t -> 'a) ->
  ('a * Sim.Engine.t) array
(** Run the rack as a {!Sim.Batch} over [domains] (default 1): group
    [g] gets a fresh engine, builds its {!Deployment} there and runs
    [body ~groups ~group:g d] as a process ([groups] is the group
    count, for {!owned_dir}).  Returns each body's value with its
    finished engine (clock, event count, engine-local counters), in
    group order.  Every group behaves exactly as on the single engine
    of {!create}.  The lowest group's exception, if any, is re-raised
    once all groups finish. *)

val group_count : t -> int
val group_size : t -> int
val node_count : t -> int
val group : t -> int -> Deployment.t

val place : groups:int -> string -> int
(** Owning group of a path in a rack of [groups] groups: a stable hash
    (FNV-1a) of its parent directory, so placement is identical across
    runs, domain counts and engines. *)

val owned_dir : groups:int -> group:int -> salt:int -> string
(** A directory path that {!place}s on [group] (deterministic probe).
    Distinct [salt]s give distinct directories. *)

val router : t -> clients:Libfs.t array -> Dfs_intf.ops
(** One fd space over per-group clients (element [g] attached to group
    [g]), routing each call to the owning group.  [mkdir] broadcasts to
    every group so ancestors resolve wherever files land; cross-group
    [rename] fails with [Einval] (a data migration the namespace does
    not model, like a cross-mount rename). *)

val replication_wire_bytes : t -> int
(** Post-compression replication bytes, summed over group primaries. *)

val total_host_dfs_cpu : t -> Sim.Time.t
(** DFS host-CPU busy time, summed over all nodes of all groups. *)
