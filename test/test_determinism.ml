(* Determinism pins.

   - Exact single-domain fingerprints of pinned DST scenarios, asserted
     as string equality in-process (the dst_sweep binary checks the
     same strings against test/dst_fingerprints.expected from the CLI).
     Any engine/heap/RNG change that perturbs event order breaks these
     before it reaches CI's fuller sweeps.

   - Pinned fingerprints of a 3-node cell and an 8-node rack.

   - Properties that batching independent simulations over several
     domains ({!Sim.Batch}) never changes results: domain count must
     never change what a simulation computes. *)

open Sim
open Linefs

let kib n = n * 1024

(* ------------------------------------------------------------------ *)
(* Pinned DST fingerprints (single domain)                             *)
(* ------------------------------------------------------------------ *)

(* These strings are the authoritative single-domain behaviour of the
   whole stack (engine scheduling order, RNG stream, fault machinery,
   FS digests).  If a change legitimately alters behaviour, regenerate
   with [dst_sweep --print-fingerprints] and update both this file and
   test/dst_fingerprints.expected in the same commit. *)
let pinned =
  [
    ( "generated-1",
      (fun () -> Fault.Scenario.generate ~seed:1),
      "digest=46cdb3a6 trace=20 ops=59 drops=0 delays=2 dups=0 reorders=0 \
       corrupts=0 scrubbed=0 ok=true []" );
    ( "adversary-2",
      (fun () -> Fault.Scenario.generate_adversary ~seed:2),
      "digest=73327dc2 trace=16 ops=55 drops=0 delays=0 dups=1 reorders=0 \
       corrupts=2 scrubbed=2 ok=true []" );
    ( "failover-primary-crash-1",
      (fun () -> Fault.Scenario.failover_primary_crash ~seed:1),
      "digest=f988ee61 trace=144 ops=65 drops=0 delays=0 dups=0 reorders=0 \
       corrupts=0 scrubbed=0 ok=true []" );
  ]

let test_pinned_fingerprints () =
  List.iter
    (fun (name, spec, expect) ->
      let got = Fault.Dst.fingerprint (Fault.Dst.run_spec (spec ())).outcome in
      Alcotest.(check string) name expect got)
    pinned

let test_fingerprints_stable_across_reruns () =
  (* Same process, fresh engines: the global state the engine rework
     touched (RPC sequence numbers, switch ids, CRC tables) must not
     leak between runs. *)
  List.iter
    (fun (name, spec, _) ->
      let fp () = Fault.Dst.fingerprint (Fault.Dst.run_spec (spec ())).outcome in
      Alcotest.(check string) (name ^ " rerun") (fp ()) (fp ()))
    pinned

(* ------------------------------------------------------------------ *)
(* Domain count never changes FS digests                               *)
(* ------------------------------------------------------------------ *)

let test_params =
  {
    Params.default with
    Params.chunk_bytes = 256 * 1024;
    log_bytes = 4 * 1024 * 1024;
  }

(* Run [jobs] independent LineFS deployments as one batch, each writing
   a seed-dependent amount of data, and return the final primary-FS
   digest of each. *)
let digests ~jobs ~seed ~domains =
  Batch.map ~domains
    (fun i ->
      let eng = Engine.create ~seed:(seed + i) () in
      let out = ref None in
      Engine.spawn_root eng (fun () ->
          let d = Deployment.create ~params:test_params ~nodes:3 () in
          let ops = Libfs.ops (Deployment.add_client d ~id:1) in
          let file_bytes = kib (32 + ((seed + i) mod 7 * 16)) in
          ignore
            (Workloads.Microbench.seq_write ~ops
               ~path:(Printf.sprintf "/det-%d" i)
               ~file_bytes ~io_bytes:(kib 16) ());
          Deployment.flush_all d;
          Deployment.stop d;
          out :=
            Some
              (Storage.Fs_state.digest (Deployment.primary d).Deployment.fs));
      Engine.run eng;
      match !out with Some d -> d | None -> Alcotest.fail "job did not finish")
    (List.init jobs Fun.id)

let prop_digest_domain_independent =
  QCheck.Test.make
    ~name:"fault-free digests identical at domains=1 and domains=4" ~count:4
    QCheck.(int_range 0 1000)
    (fun seed ->
      let d1 = digests ~jobs:3 ~seed ~domains:1 in
      let d4 = digests ~jobs:3 ~seed ~domains:4 in
      d1 = d4)

(* ------------------------------------------------------------------ *)
(* 3-node cell                                                         *)
(* ------------------------------------------------------------------ *)

(* One fault-free LineFS cell on one engine.  The fingerprint covers
   everything user-visible — primary digest, wire bytes, the clock when
   the workload body finished, events and counters — so any scheduler
   or data-path change that perturbs the cell breaks the pin. *)
let run_cell ~file_kib ~io_kib =
  Counters.reset ();
  let eng = Engine.create () in
  let out = ref None in
  Engine.spawn_root eng (fun () ->
      let d = Deployment.create ~params:test_params ~nodes:3 () in
      let ops = Libfs.ops (Deployment.add_client d ~id:1) in
      ignore
        (Workloads.Microbench.seq_write ~ops ~path:"/cell"
           ~file_bytes:(kib file_kib) ~io_bytes:(kib io_kib) ());
      Deployment.flush_all d;
      Deployment.stop d;
      out :=
        Some
          ( Storage.Fs_state.digest (Deployment.primary d).Deployment.fs,
            Deployment.replication_wire_bytes d,
            Engine.now () ));
  Engine.run eng;
  Counters.merge eng;
  match !out with
  | None -> Alcotest.fail "cell did not finish"
  | Some (dg, wire, clock) ->
      (dg, wire, clock, Engine.events_executed eng, Counters.all ())

let cell_fingerprint (dg, wire, clock, events, counters) =
  Printf.sprintf "digest=%08lx wire=%d clock=%d events=%d [%s]" dg wire clock
    events
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))

(* Regenerate by running this test and copying the reported value if a
   change legitimately alters cell behaviour.  Digest and wire bytes
   are those the per-node sharded cell was pinned at; clock and events
   moved when the sharded model of the fabric hop (one cross-shard
   flight instead of the switch process) was retired, leaving the
   single-engine model every figure uses. *)
let pinned_cell = "digest=0198108d wire=263100 clock=518315 events=358 []"

let test_cell_pinned () =
  Alcotest.(check string) "3-node cell" pinned_cell
    (cell_fingerprint (run_cell ~file_kib:256 ~io_kib:16))

(* ------------------------------------------------------------------ *)
(* Rack-scale: N nodes as replica groups, cohort clients               *)
(* ------------------------------------------------------------------ *)

(* An N-node rack of replica groups driven by per-group cohorts, once
   batched one engine per group (at several domain counts) and once on
   a single engine.  Digests, wire bytes, the slowest group's elapsed
   time and merged counters must agree everywhere; the event total is
   part of the batched fingerprint (identical at every domain count)
   but not of the cross-check, since the two set up their processes
   differently. *)
let rack_params = test_params

let digests_of deployments =
  List.map
    (fun d -> Storage.Fs_state.digest (Deployment.primary d).Deployment.fs)
    deployments

let slowest results =
  List.fold_left
    (fun acc r -> max acc r.Workloads.Rack_cohort.elapsed)
    0 results

let run_batched_rack ~nodes ~group_size ~cohort ~domains ~group_kib ~io_kib =
  Counters.reset ();
  let runs =
    Array.to_list
      (Workloads.Rack_cohort.run ~domains ~params:rack_params ~nodes
         ~group_size ~cohort ~group_bytes:(kib group_kib)
         ~io_bytes:(kib io_kib) ())
  in
  List.iter (fun (_, eng) -> Counters.merge eng) runs;
  let results = List.map fst runs in
  let deployments =
    List.map (fun r -> r.Workloads.Rack_cohort.deployment) results
  in
  ( ( digests_of deployments,
      List.fold_left
        (fun acc d -> acc + Deployment.replication_wire_bytes d)
        0 deployments,
      slowest results,
      Counters.all () ),
    List.fold_left (fun acc (_, eng) -> acc + Engine.events_executed eng) 0 runs
  )

let run_single_engine_rack ~nodes ~group_size ~cohort ~group_kib ~io_kib =
  Counters.reset ();
  let eng = Engine.create () in
  let handles = ref None in
  Engine.spawn_root eng (fun () ->
      let rack =
        Linefs.Rack.create ~params:rack_params ~nodes ~group_size ()
      in
      let collect =
        Workloads.Rack_cohort.spawn_on ~eng ~rack ~cohort
          ~group_bytes:(kib group_kib) ~io_bytes:(kib io_kib) ()
      in
      handles := Some (rack, collect));
  Engine.run eng;
  Counters.merge eng;
  match !handles with
  | None -> Alcotest.fail "single-engine rack did not boot"
  | Some (rack, collect) ->
      ( digests_of
          (List.init (Linefs.Rack.group_count rack) (Linefs.Rack.group rack)),
        Linefs.Rack.replication_wire_bytes rack,
        slowest (Array.to_list (collect ())),
        Counters.all () )

let rack_fingerprint ((digests, wire, clock, counters), events) =
  Printf.sprintf "digests=%s wire=%d clock=%d events=%d [%s]"
    (String.concat ","
       (List.map (fun d -> Printf.sprintf "%08lx" d) digests))
    wire clock events
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))

(* Regenerate by running this test and copying the reported value if a
   change legitimately alters rack behaviour.  Digests and wire bytes
   are those the per-node sharded rack was pinned at; clock and events
   moved when the sharded model of the fabric hop was retired (each
   group now runs the single-engine model on its own engine). *)
let pinned_rack =
  "digests=57e1cafa,a194fa47 wire=526436 clock=669229 events=1040 []"

let test_rack_pinned () =
  List.iter
    (fun domains ->
      let got =
        rack_fingerprint
          (run_batched_rack ~nodes:8 ~group_size:4 ~cohort:2 ~domains
             ~group_kib:256 ~io_kib:16)
      in
      Alcotest.(check string)
        (Printf.sprintf "8-node rack, domains=%d" domains)
        pinned_rack got)
    [ 1; 2; 4 ]

let prop_rack_batch_matches_single_engine =
  QCheck.Test.make
    ~name:"rack: digests/wire/counters identical at domains 1/2/4 and unsharded"
    ~count:3
    QCheck.(pair (int_range 4 12) (int_range 1 3))
    (fun (units, cohort) ->
      let group_kib = 32 * units and io_kib = 16 in
      let nodes = 8 and group_size = 4 in
      let single =
        run_single_engine_rack ~nodes ~group_size ~cohort ~group_kib ~io_kib
      in
      let reference =
        run_batched_rack ~nodes ~group_size ~cohort ~domains:1 ~group_kib
          ~io_kib
      in
      (* Every group behaves exactly as on the single engine. *)
      fst reference = single
      && List.for_all
           (fun domains ->
             run_batched_rack ~nodes ~group_size ~cohort ~domains ~group_kib
               ~io_kib
             = reference)
           [ 2; 4 ])

(* The single-engine router: one fd space over per-group clients, each
   call landing on the group that owns the path. *)
let test_router_places_on_owner () =
  let eng = Engine.create () in
  let checked = ref false in
  Engine.spawn_root eng (fun () ->
      let rack =
        Linefs.Rack.create ~params:rack_params ~nodes:8 ~group_size:4 ()
      in
      let groups = Linefs.Rack.group_count rack in
      let clients =
        Array.init groups (fun g ->
            Deployment.add_client (Linefs.Rack.group rack g) ~id:(g + 1))
      in
      let own = Array.map Libfs.ops clients in
      let ops = Linefs.Rack.router rack ~clients in
      let dirs =
        Array.init groups (fun group ->
            Linefs.Rack.owned_dir ~groups ~group ~salt:7)
      in
      Array.iteri
        (fun g dir ->
          ops.Dfs_intf.mkdir dir;
          let path = dir ^ "/f" in
          let fd = ops.Dfs_intf.create path in
          ops.Dfs_intf.append fd (Storage.Data.synthetic ~seed:g ~len:(kib 16));
          ops.Dfs_intf.fsync fd;
          ops.Dfs_intf.close fd;
          Alcotest.(check int) "placed on its group" g
            (Linefs.Rack.place ~groups path);
          Array.iteri
            (fun h o ->
              Alcotest.(check (option int))
                (Printf.sprintf "%s seen by group %d" path h)
                (if h = g then Some (kib 16) else None)
                (o.Dfs_intf.file_size path))
            own)
        dirs;
      (match ops.Dfs_intf.rename (dirs.(0) ^ "/f") (dirs.(1) ^ "/f") with
      | () -> Alcotest.fail "cross-group rename succeeded"
      | exception Dfs_intf.Fs_error (Storage.Fs_state.Einval, _) -> ());
      checked := true);
  Engine.run eng;
  Alcotest.(check bool) "router body finished" true !checked

(* ------------------------------------------------------------------ *)
(* Cohort equivalence: K users over one LibFS = K individual clients   *)
(* ------------------------------------------------------------------ *)

let cross_users = 3
let cross_chunks = 6
let cross_io = kib 16

let cross_stream u =
  Storage.Data.synthetic ~seed:(77 + u) ~len:(cross_chunks * cross_io)

(* Drive one 3-node deployment, return (digest, per-file sizes,
   per-user issued-op and byte counts). *)
let run_cross driver =
  Counters.reset ();
  let eng = Engine.create () in
  let out = ref None in
  Engine.spawn_root eng (fun () ->
      let d = Deployment.create ~params:test_params ~nodes:3 () in
      let per_user = driver d in
      Deployment.flush_all d;
      Deployment.stop d;
      let ops = Libfs.ops (List.hd (Deployment.clients d)) in
      let sizes =
        List.init cross_users (fun u ->
            ops.Dfs_intf.file_size (Printf.sprintf "/cross/u%d" u))
      in
      out :=
        Some
          ( Storage.Fs_state.digest (Deployment.primary d).Deployment.fs,
            sizes,
            per_user ));
  Engine.run eng;
  match !out with
  | None -> Alcotest.fail "cross-check run did not finish"
  | Some r -> r

(* K individual LibFS clients, each a process writing its own file;
   round-robin interleaving via one chunk per turn. *)
let individual_driver d =
  let clis = List.init cross_users (fun u -> Deployment.add_client d ~id:(u + 1)) in
  let opses = List.map Libfs.ops clis in
  List.iteri (fun u o -> if u = 0 then o.Dfs_intf.mkdir "/cross") opses;
  let fds =
    List.mapi
      (fun u o -> o.Dfs_intf.create (Printf.sprintf "/cross/u%d" u))
      opses
  in
  for r = 0 to cross_chunks - 1 do
    List.iteri
      (fun u o ->
        o.Dfs_intf.append (List.nth fds u)
          (Storage.Data.sub (cross_stream u) ~pos:(r * cross_io) ~len:cross_io))
      opses
  done;
  List.iteri
    (fun u o ->
      o.Dfs_intf.fsync (List.nth fds u);
      o.Dfs_intf.close (List.nth fds u))
    opses;
  List.map
    (fun c -> (Libfs.ops_issued c, Libfs.bytes_written c, Libfs.fsync_count c))
    clis

(* One cohort of K users over a single LibFS, same op sequence. *)
let cohort_driver d =
  let cli = Deployment.add_client d ~id:1 in
  let coh = Linefs.Cohort.create ~ops:(Libfs.ops cli) ~users:cross_users () in
  let uops = Array.init cross_users (Linefs.Cohort.user_ops coh) in
  uops.(0).Dfs_intf.mkdir "/cross";
  let fds =
    Array.init cross_users (fun u ->
        uops.(u).Dfs_intf.create (Printf.sprintf "/cross/u%d" u))
  in
  for r = 0 to cross_chunks - 1 do
    Array.iteri
      (fun u fd ->
        uops.(u).Dfs_intf.append fd
          (Storage.Data.sub (cross_stream u) ~pos:(r * cross_io) ~len:cross_io))
      fds
  done;
  Array.iteri
    (fun u fd ->
      uops.(u).Dfs_intf.fsync fd;
      uops.(u).Dfs_intf.close fd)
    fds;
  List.init cross_users (fun u ->
      let s = Linefs.Cohort.user_stats coh u in
      ( s.Linefs.Cohort.ops_issued,
        s.Linefs.Cohort.bytes_written,
        s.Linefs.Cohort.fsyncs ))

let test_cohort_equivalence () =
  let dg_i, sizes_i, per_i = run_cross individual_driver in
  let dg_c, sizes_c, per_c = run_cross cohort_driver in
  Alcotest.(check bool) "file-system digests equal" true (dg_i = dg_c);
  Alcotest.(check (list (option int))) "per-user file sizes" sizes_i sizes_c;
  (* Per-user traffic: what each logical user wrote and synced must
     match its stand-alone counterpart.  (The individual clients' LibFS
     op counter includes client-lifecycle ops the cohort view doesn't
     route, so compare bytes and fsyncs, the per-op semantics.) *)
  List.iteri
    (fun u ((_, bytes_i, fsync_i), (_, bytes_c, fsync_c)) ->
      Alcotest.(check int)
        (Printf.sprintf "user %d bytes written" u)
        bytes_i bytes_c;
      Alcotest.(check int) (Printf.sprintf "user %d fsyncs" u) fsync_i fsync_c)
    (List.combine per_i per_c)

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "determinism"
    [
      ( "fingerprints",
        [
          tc "pinned single-domain fingerprints" `Quick
            test_pinned_fingerprints;
          tc "stable across in-process reruns" `Quick
            test_fingerprints_stable_across_reruns;
        ] );
      ("domains", [ qt prop_digest_domain_independent ]);
      ( "single-engine-cell",
        [ tc "pinned 3-node cell fingerprint" `Quick test_cell_pinned ] );
      ( "rack",
        [
          tc "pinned 8-node rack fingerprint at domains 1/2/4" `Quick
            test_rack_pinned;
          qt prop_rack_batch_matches_single_engine;
          tc "router places files on the owning group" `Quick
            test_router_places_on_owner;
          tc "cohort of K users = K individual clients" `Quick
            test_cohort_equivalence;
        ] );
    ]
