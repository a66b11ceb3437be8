(* Attribution of host time to the repository's layers.  [Engine.profile_*]
   buckets host time by event name with digit runs removed; this table
   maps each bucket the benchmark's workloads produce to the layer that
   runs in it.  The unit test fails when a workload produces a bucket
   missing here, so a renamed process cannot silently drop out of
   attribution; at run time an unknown bucket is reported as
   [unmapped]. *)

(* Layers that own host self-time, in report order.  LibFS runs inline
   in its client's process, so its host time is inside [workload]. *)
let all =
  [
    "workload";
    "antagonist";
    "nicfs.fetching";
    "nicfs.validation";
    "nicfs.publication";
    "nicfs.compression";
    "nicfs.transfer";
    "nicfs.ctrl";
    "kworker";
  ]

let table =
  [
    (* benchmark clients and the workloads' own processes *)
    ("perfbench.client", "workload");
    ("root", "workload");
    ("tsort.part", "workload");
    ("tsort.sort", "workload");
    ("filebench.t", "workload");
    (* co-running applications *)
    ("streamcluster.thread", "antagonist");
    ("streamcluster.bg", "antagonist");
    ("iperf", "antagonist");
    (* NICFS pipeline stages (per-client pipelines on every node) *)
    ("shared.c.fetching.w", "nicfs.fetching");
    ("shared.c.validation.w", "nicfs.validation");
    ("pub.c.publication.w", "nicfs.publication");
    ("nicfs.replica-publish", "nicfs.publication");
    ("repl.c.compression.w", "nicfs.compression");
    ("nicfs.compress-seg", "nicfs.compression");
    ("repl.c.transfer.w", "nicfs.transfer");
    ("nicfs.forward", "nicfs.transfer");
    (* NICFS control plane: both RPC planes, fsync waiters, leases *)
    ("nicfs.data.worker", "nicfs.ctrl");
    ("nicfs.ctrl.poll", "nicfs.ctrl");
    ("nicfs.fsync-wait", "nicfs.ctrl");
    ("lease.persist", "nicfs.ctrl");
    (* host kernel worker *)
    ("kworker.worker", "kworker");
  ]

let layer_of bucket = List.assoc_opt bucket table

(* Sum (seconds, minor words) of a profile snapshot per layer, in
   [all] order, plus the unmapped remainder. *)
let attribute rows =
  let sum layer =
    List.fold_left
      (fun (s, w) (k, _, secs, words) ->
        if layer_of k = layer then (s +. secs, w +. words) else (s, w))
      (0.0, 0.0) rows
  in
  (List.map (fun l -> (l, sum (Some l))) all, sum None)

let unmapped rows =
  List.filter_map
    (fun (k, _, _, _) -> if layer_of k = None then Some k else None)
    rows
