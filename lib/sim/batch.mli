(** Run independent jobs over a fixed pool of OS domains.

    A batch is a list of jobs that share no simulation state: figure
    cells, DST scenarios, the replica groups of a rack.  Each job
    creates and runs its own {!Engine}, so the engines never interact
    and a job's result depends only on the job — never on the domain
    count, on which domain ran it, or on what that domain ran before
    (engine-local state starts empty in every engine; see
    {!Engine.Local}).  Results come back in input order, so a batch
    run at any domain count is indistinguishable from running the jobs
    one after another.

    Jobs must not touch process-global mutable state; everything a
    simulation needs lives in its engine. *)

val workers : domains:int -> jobs:int -> int
(** Domains a batch of [jobs] actually uses when given [domains]:
    [min domains jobs (Domain.recommended_domain_count ())], at least
    1.  More domains than cores only adds stop-the-world GC
    synchronization, so the core count caps the pool. *)

val run : ?domains:int -> (unit -> 'a) list -> ('a, exn) result list
(** [run ~domains jobs] runs every job and returns its value or the
    exception it raised, in input order.  The calling domain works
    alongside [workers ~domains ~jobs - 1] spawned ones; each claims
    the next unstarted job from one atomic index until none are left.
    A job that raises does not stop the others.  [domains] defaults
    to 1 (the jobs run in order on the calling domain). *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] computed by {!run}.  If
    some [f x] raised, every job still finishes first and then the
    exception of the lowest-index failure is re-raised. *)
