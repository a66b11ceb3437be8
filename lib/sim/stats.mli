(** Measurement recorders used by the benchmark harness and tests. *)

(** Growable sample series with summary statistics. *)
module Series : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  (** 0.0 when empty. *)

  val min : t -> float
  val max : t -> float
  val stddev : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]], nearest-rank on the
      sorted samples. 0.0 when empty. *)
end

(** Time-bucketed accumulator, e.g. bytes-per-second over a run. *)
module Timeseries : sig
  type t

  val create : bucket:Time.t -> t
  (** [bucket] is the width of each accumulation window. *)

  val add : t -> at:Time.t -> float -> unit
  (** Accumulate [v] into the bucket containing time [at]. *)

  val buckets : t -> (Time.t * float) list
  (** [(bucket_start, sum)] pairs in time order, including empty
      buckets between the first and last non-empty ones. *)

  val rate_per_sec : t -> (float * float) list
  (** [(bucket_start_seconds, sum_per_second)] pairs: each bucket's sum
      divided by the bucket width in seconds. *)
end

(** Busy-time tracker: integrates the time a resource spends occupied,
    for utilization reports (e.g. CPU cores used on average). *)
module Busy : sig
  type t

  val create : unit -> t

  val record : t -> start:Time.t -> stop:Time.t -> unit
  (** Account an occupied interval (intervals may overlap: utilization
      above 1.0 then means multiple units busy in parallel). *)

  val busy_time : t -> Time.t

  val utilization : t -> over:Time.t -> float
  (** [busy_time / over]; e.g. 2.24 means 2.24 cores busy on average. *)
end
