(** Rack-scale cohort workload: one sequential-write cohort per replica
    group of a {!Linefs.Rack}.

    Each group gets one LibFS client on its primary, wrapped in a
    {!Linefs.Cohort} of K users; the users write their own files (in a
    directory the group owns) round-robin, one IO per user per round —
    K interleaved clients driven by a single LibFS.  Content is a pure
    function of (group, user, offset), so runs are comparable across
    node counts, cohort sizes and domain counts. *)

open Sim
open Linefs

type group_result = {
  dir : string;  (** group-owned working directory *)
  elapsed : Time.t;  (** virtual time from first create to flush *)
  totals : Cohort.stats;
  deployment : Deployment.t;  (** the group's chain, for post-run reads *)
}

val run :
  ?domains:int ->
  ?params:Params.t ->
  nodes:int ->
  group_size:int ->
  cohort:int ->
  group_bytes:int ->
  io_bytes:int ->
  unit ->
  (group_result * Engine.t) array
(** Run the workload on a [nodes]-node rack batched over [domains]
    ({!Linefs.Rack.run_batch}: one engine per group).  [group_bytes] is
    split evenly over the cohort's users.  Results are in group order,
    each with its group's finished engine, and identical at every
    domain count. *)

val spawn_on :
  eng:Engine.t ->
  rack:Rack.t ->
  cohort:int ->
  group_bytes:int ->
  io_bytes:int ->
  unit ->
  unit ->
  group_result array
(** Same workload on a single-engine rack ({!Linefs.Rack.create}):
    every group's cohort is a root process of [eng].  Call from inside
    [eng]'s process context; returns a collector to call after the
    run.  The batched-vs-single-engine cross-checks compare the two. *)
