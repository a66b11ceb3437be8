(** Named event counters.

    A registry for rare-path bookkeeping that rides along with
    {!Engine.global_events_executed}: retransmissions, dedup-cache
    hits, corrupt-frame NACKs, scrub repairs and the like.  Counters are
    plain integers with no simulation side effects — bumping one never
    schedules an event, so instrumented and uninstrumented runs produce
    identical schedules.

    Bumps made while an engine is running land in that engine's
    {!Engine.Local} storage, so engines on different domains never share
    counter state; bumps outside any engine go to a process-global
    table.  After a run, fold the engine tallies into the global view
    with {!merge} (in whatever deterministic order the harness picks)
    or read a single engine with {!get_in}/{!all_in}. *)

val bump : string -> unit
(** Increment a named counter (created at zero on first use) — in the
    current engine's table when called from simulation code, else in
    the global table. *)

val add : string -> int -> unit
(** Add an arbitrary amount to a named counter. *)

val get : string -> int
(** Current value (global table plus the current engine's, if any);
    0 for names never bumped. *)

val all : unit -> (string * int) list
(** All non-zero counters (global plus current engine), sorted by name. *)

val get_in : Engine.t -> string -> int
(** Value accumulated by one engine (not yet {!merge}d). *)

val all_in : Engine.t -> (string * int) list
(** All non-zero counters of one engine, sorted by name. *)

val merge : Engine.t -> unit
(** Fold the engine's tallies into the global table and clear them, so
    a later {!merge} of the same engine cannot double-count.  Call once
    per engine after it completes; order the calls deterministically
    when reporting must be reproducible. *)

val reset : unit -> unit
(** Zero every global counter (and the current engine's, if inside a
    run). *)
