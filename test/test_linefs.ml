(* Integration tests for the LineFS core: LibFS <-> NICFS pipelines,
   replication, fsync semantics, leases, coalescing, kernel worker,
   flow control, failure handling. *)

open Sim
open Storage
open Linefs

let kib n = n * 1024
let mib n = n * 1024 * 1024

(* Small chunks/logs so tests exercise chunking without moving GBs. *)
let test_params =
  {
    Params.default with
    Params.chunk_bytes = 256 * 1024;
    log_bytes = 4 * 1024 * 1024;
  }

let run_sim f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn_root eng (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not finish the root process"

let make_cluster ?(params = test_params) ?(nodes = 3) ?compression
    ?coalescing ?pipeline_parallelism ?kworker_mode () =
  Deployment.create ~params ~nodes ?compression ?coalescing
    ?pipeline_parallelism ?kworker_mode ()

let write_file (ops : Dfs_intf.ops) path ~data =
  let fd = ops.Dfs_intf.create path in
  ops.Dfs_intf.append fd data;
  fd

(* ------------------------------------------------------------------ *)
(* Basic IO                                                            *)
(* ------------------------------------------------------------------ *)

let test_write_read_roundtrip () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = write_file ops "/hello" ~data:(Data.of_string "hello linefs") in
      let got = ops.Dfs_intf.read fd ~pos:0 ~len:100 in
      Alcotest.(check string)
        "read back" "hello linefs"
        (Bytes.to_string (Data.to_bytes got));
      ops.Dfs_intf.close fd;
      Deployment.stop d)

let test_read_spans_log_and_public () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      ops.Dfs_intf.append fd (Data.of_string "aaaa");
      ops.Dfs_intf.fsync fd;
      (* Force publication so the first write moves to public PM. *)
      Nicfs.flush (Deployment.primary d).Deployment.nicfs ~client:1;
      ops.Dfs_intf.append fd (Data.of_string "bbbb");
      let got = ops.Dfs_intf.read fd ~pos:0 ~len:8 in
      Alcotest.(check string)
        "mixed read" "aaaabbbb"
        (Bytes.to_string (Data.to_bytes got));
      Deployment.stop d)

let test_namespace_ops () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      ops.Dfs_intf.mkdir "/dir";
      let fd = write_file ops "/dir/a" ~data:(Data.of_string "x") in
      ops.Dfs_intf.close fd;
      ops.Dfs_intf.rename "/dir/a" "/dir/b";
      Alcotest.(check (option int))
        "renamed file size" (Some 1)
        (ops.Dfs_intf.file_size "/dir/b");
      Alcotest.(check (option int))
        "old name gone" None
        (ops.Dfs_intf.file_size "/dir/a");
      ops.Dfs_intf.unlink "/dir/b";
      Alcotest.(check (option int))
        "unlinked" None
        (ops.Dfs_intf.file_size "/dir/b");
      Deployment.stop d)

let test_open_missing_file_fails () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      (match ops.Dfs_intf.open_file "/nope" with
      | _ -> Alcotest.fail "expected Fs_error"
      | exception Dfs_intf.Fs_error (Fs_state.Enoent, _) -> ());
      Deployment.stop d)

(* ------------------------------------------------------------------ *)
(* Pipelines, publication, reclamation                                 *)
(* ------------------------------------------------------------------ *)

let test_publication_reclaims_log () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/big" in
      (* Write 2 MB: 8 chunks at the 256 KB test chunk size. *)
      for i = 0 to 127 do
        ops.Dfs_intf.write fd ~pos:(i * kib 16)
          (Data.synthetic ~seed:i ~len:(kib 16))
      done;
      Nicfs.flush (Deployment.primary d).Deployment.nicfs ~client:1;
      Alcotest.(check int) "log fully reclaimed" 0 (Libfs.pending_bytes c);
      Alcotest.(check bool)
        "published bytes cover the data" true
        (Nicfs.published_bytes (Deployment.primary d).Deployment.nicfs
        >= mib 2);
      Deployment.stop d)

(* A LibFS on a bare host whose backend publishes nothing by itself:
   the test plays the publisher and calls [Libfs.reclaim]. *)
let host_libfs () =
  let switch = Hw.Netlink.create_switch () in
  let node = Hw.Node.create Hw.Config.testbed_25gbe ~switch ~id:0 in
  let backend =
    {
      Libfs.sysname = "host";
      lease = (fun _ _ -> ());
      open_check = (fun _ _ _ -> ());
      log_full = (fun _ -> Alcotest.fail "log full");
      appended = (fun _ _ -> ());
      fsync = (fun _ _ -> ());
    }
  in
  Libfs.create ~params:test_params ~node ~backend ~fs:(Fs_state.create ())
    ~id:1 ()

(* Reclaim costs what it frees, not the namespace: after one more
   write, reclaiming it allocates the same whether the client has
   already written (and reclaimed) 10 files or 2,000. *)
let test_reclaim_cost_independent_of_files () =
  let reclaim_words files =
    run_sim (fun () ->
        let c = host_libfs () in
        let ops = Libfs.ops c in
        let fds =
          Array.init files (fun i ->
              let fd = ops.Dfs_intf.create (Printf.sprintf "/f%d" i) in
              ops.Dfs_intf.append fd (Data.synthetic ~seed:i ~len:64);
              if i mod 10 = 9 then
                Libfs.reclaim c ~upto_seq:(Libfs.last_seq c);
              fd)
        in
        Libfs.reclaim c ~upto_seq:(Libfs.last_seq c);
        ops.Dfs_intf.append fds.(0) (Data.synthetic ~seed:files ~len:64);
        let before = Gc.minor_words () in
        Libfs.reclaim c ~upto_seq:(Libfs.last_seq c);
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) "log fully reclaimed" 0 (Libfs.pending_bytes c);
        words)
  in
  let few = reclaim_words 10 and many = reclaim_words 2000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words with 2000 files, %.0f with 10" many few)
    true
    (Float.abs (many -. few) <= 16.0)

(* The append path costs the same however long the file already is:
   both extent maps it updates (the unpublished-write index and the
   file's extents) append at their tail, where a balanced tree would
   copy a root-to-leaf path that lengthens with the file. *)
let test_append_alloc_flat_in_file_length () =
  let words_per_append prior =
    run_sim (fun () ->
        let c = host_libfs () in
        let ops = Libfs.ops c in
        let fd = ops.Dfs_intf.create "/f" in
        let append i = ops.Dfs_intf.append fd (Data.synthetic ~seed:i ~len:64) in
        for i = 1 to prior do
          append i
        done;
        let before = Gc.minor_words () in
        for i = 1 to 64 do
          append (prior + i)
        done;
        (Gc.minor_words () -. before) /. 64.0)
  in
  let short = words_per_append 100 and long = words_per_append 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "%.1f minor words per append after 10000 appends, %.1f after 100" long
       short)
    true
    (Float.abs (long -. short) <= 16.0)

let test_pipeline_kick_on_chunk_boundary () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      (* Just over one chunk: publication should start without fsync. *)
      for i = 0 to 20 do
        ops.Dfs_intf.write fd ~pos:(i * kib 16)
          (Data.synthetic ~seed:i ~len:(kib 16))
      done;
      (* Give the background pipeline time to run. *)
      Engine.sleep (Time.ms 100);
      Alcotest.(check bool)
        "background publication happened" true
        (Nicfs.published_bytes (Deployment.primary d).Deployment.nicfs > 0);
      Deployment.stop d)

let test_stage_latencies_recorded () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      for i = 0 to 63 do
        ops.Dfs_intf.write fd ~pos:(i * kib 16)
          (Data.synthetic ~seed:i ~len:(kib 16))
      done;
      let nicfs = (Deployment.primary d).Deployment.nicfs in
      Nicfs.flush nicfs ~client:1;
      let stages = Nicfs.stage_mean_us nicfs ~client:1 in
      List.iter
        (fun (name, mean) ->
          if name <> "compression" then
            Alcotest.(check bool)
              (Printf.sprintf "stage %s has positive latency (%.2f)" name mean)
              true (mean > 0.0))
        stages;
      Alcotest.(check int) "five stages" 5 (List.length stages);
      Deployment.stop d)

(* ------------------------------------------------------------------ *)
(* Replication and fsync semantics                                     *)
(* ------------------------------------------------------------------ *)

let test_fsync_waits_for_replication () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      ops.Dfs_intf.append fd (Data.synthetic ~seed:1 ~len:(kib 64));
      ops.Dfs_intf.fsync fd;
      (* After fsync, every replica hop must have received the bytes. *)
      let primary_sent =
        Nicfs.replicated_wire_bytes (Deployment.primary d).Deployment.nicfs
      in
      Alcotest.(check bool)
        (Printf.sprintf "primary shipped data (%d bytes)" primary_sent)
        true (primary_sent >= kib 64);
      Deployment.stop d)

let test_replication_reaches_all_replicas () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      for i = 0 to 31 do
        ops.Dfs_intf.write fd ~pos:(i * kib 16)
          (Data.synthetic ~seed:i ~len:(kib 16))
      done;
      ops.Dfs_intf.fsync fd;
      (* Middle replica forwards to the last one. *)
      let mid = Deployment.node d 1 in
      Alcotest.(check bool)
        "middle replica forwarded" true
        (Nicfs.replicated_wire_bytes mid.Deployment.nicfs >= kib 512);
      Deployment.stop d)

let test_fsync_without_writes_is_cheap () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      let t0 = Engine.now () in
      ops.Dfs_intf.fsync fd;
      let elapsed = Engine.now () - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "fast no-data fsync (%s)" (Time.to_string elapsed))
        true
        (elapsed < Time.ms 2);
      Deployment.stop d)

let test_single_node_no_replication () =
  run_sim (fun () ->
      let d = make_cluster ~nodes:1 () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = write_file ops "/f" ~data:(Data.synthetic ~seed:1 ~len:(kib 64)) in
      ops.Dfs_intf.fsync fd;
      Alcotest.(check int)
        "nothing shipped" 0
        (Nicfs.replicated_wire_bytes (Deployment.primary d).Deployment.nicfs);
      Deployment.stop d)

let test_multi_client_isolation () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c1 = Deployment.add_client d ~id:1 in
      let c2 = Deployment.add_client d ~id:2 in
      let ops1 = Libfs.ops c1 and ops2 = Libfs.ops c2 in
      let done1 = Ivar.create () and done2 = Ivar.create () in
      Engine.spawn (fun () ->
          let fd = ops1.Dfs_intf.create "/a" in
          ops1.Dfs_intf.append fd (Data.of_string "from-client-1");
          ops1.Dfs_intf.fsync fd;
          Ivar.fill done1 ());
      Engine.spawn (fun () ->
          let fd = ops2.Dfs_intf.create "/b" in
          ops2.Dfs_intf.append fd (Data.of_string "from-client-2");
          ops2.Dfs_intf.fsync fd;
          Ivar.fill done2 ());
      Ivar.read done1;
      Ivar.read done2;
      let fd = ops1.Dfs_intf.open_file "/b" in
      let got = ops1.Dfs_intf.read fd ~pos:0 ~len:100 in
      Alcotest.(check string)
        "cross-client visibility" "from-client-2"
        (Bytes.to_string (Data.to_bytes got));
      Deployment.stop d)

(* ------------------------------------------------------------------ *)
(* Log replay = crash consistency                                      *)
(* ------------------------------------------------------------------ *)

let test_log_replay_rebuilds_state () =
  (* The private log alone must reconstruct the FS: prefix crash
     consistency relies on it. *)
  run_sim (fun () ->
      let d = make_cluster ~params:{ test_params with Params.chunk_bytes = mib 64 } () in
      (* Huge chunk size: nothing gets published, all stays in the log. *)
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      ops.Dfs_intf.mkdir "/dir";
      let fd = ops.Dfs_intf.create "/dir/f" in
      ops.Dfs_intf.append fd (Data.of_string "abc");
      ops.Dfs_intf.append fd (Data.of_string "def");
      ops.Dfs_intf.rename "/dir/f" "/dir/g";
      (* Replay the raw log into a fresh FS. *)
      let replayed = Fs_state.create () in
      Oplog.Log.iter (Libfs.log c) (fun e ->
          match Fs_state.apply replayed e.Oplog.op with
          | Ok () -> ()
          | Error err ->
              Alcotest.failf "replay failed: %s"
                (Fs_state.error_to_string err));
      (match Fs_state.resolve replayed "/dir/g" with
      | Ok inum -> (
          match Fs_state.read replayed ~inum ~pos:0 ~len:10 with
          | Ok data ->
              Alcotest.(check string)
                "replayed content" "abcdef"
                (Bytes.to_string (Data.to_bytes data))
          | Error e -> Alcotest.failf "read: %s" (Fs_state.error_to_string e))
      | Error e -> Alcotest.failf "resolve: %s" (Fs_state.error_to_string e));
      Deployment.stop d)

let test_log_prefix_replay_consistent () =
  (* Any prefix of the log replays without errors: prefix crash
     consistency (§3.1). *)
  run_sim (fun () ->
      let d = make_cluster ~params:{ test_params with Params.chunk_bytes = mib 64 } () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      ops.Dfs_intf.mkdir "/d";
      let fd = ops.Dfs_intf.create "/d/f" in
      ops.Dfs_intf.append fd (Data.of_string "111");
      ops.Dfs_intf.rename "/d/f" "/d/g";
      ops.Dfs_intf.unlink "/d/g";
      let entries = ref [] in
      Oplog.Log.iter (Libfs.log c) (fun e -> entries := e :: !entries);
      let entries = List.rev !entries in
      let n = List.length entries in
      for prefix = 0 to n do
        let replayed = Fs_state.create () in
        List.iteri
          (fun i e ->
            if i < prefix then
              match Fs_state.apply replayed e.Oplog.op with
              | Ok () -> ()
              | Error err ->
                  Alcotest.failf "prefix %d entry %d failed: %s" prefix i
                    (Fs_state.error_to_string err))
          entries
      done;
      Deployment.stop d)

(* ------------------------------------------------------------------ *)
(* Leases                                                              *)
(* ------------------------------------------------------------------ *)

let test_lease_cached_after_first_acquire () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      for i = 0 to 9 do
        ops.Dfs_intf.write fd ~pos:(i * 100) (Data.of_string "xxxx")
      done;
      Alcotest.(check bool)
        (Printf.sprintf "hits (%d) outnumber misses (%d)" (Libfs.lease_hits c)
           (Libfs.lease_misses c))
        true
        (Libfs.lease_hits c > Libfs.lease_misses c);
      Deployment.stop d)

let test_lease_conflict_blocks_second_writer () =
  run_sim (fun () ->
      let d = make_cluster () in
      let lease = Nicfs.lease_mgr (Deployment.primary d).Deployment.nicfs in
      Alcotest.(check bool) "c1 granted" true
        (Lease.acquire lease ~client:1 ~inum:42 Lease.Write = `Granted);
      Alcotest.(check bool) "c2 conflicts" true
        (Lease.acquire lease ~client:2 ~inum:42 Lease.Write = `Conflict);
      Lease.release lease ~client:1 ~inum:42;
      Alcotest.(check bool) "c2 granted after release" true
        (Lease.acquire lease ~client:2 ~inum:42 Lease.Write = `Granted);
      Deployment.stop d)

let test_lease_readers_share () =
  run_sim (fun () ->
      let d = make_cluster () in
      let lease = Nicfs.lease_mgr (Deployment.primary d).Deployment.nicfs in
      Alcotest.(check bool) "r1" true
        (Lease.acquire lease ~client:1 ~inum:7 Lease.Read = `Granted);
      Alcotest.(check bool) "r2" true
        (Lease.acquire lease ~client:2 ~inum:7 Lease.Read = `Granted);
      Alcotest.(check bool) "writer blocked" true
        (Lease.acquire lease ~client:3 ~inum:7 Lease.Write = `Conflict);
      Deployment.stop d)

let test_fsync_waits_for_lease_persistence () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = write_file ops "/f" ~data:(Data.of_string "z") in
      ops.Dfs_intf.fsync fd;
      let lease = Nicfs.lease_mgr (Deployment.primary d).Deployment.nicfs in
      Alcotest.(check int) "no pending lease persists after fsync" 0
        (Lease.pending_persists lease);
      Deployment.stop d)

(* ------------------------------------------------------------------ *)
(* Coalescing                                                          *)
(* ------------------------------------------------------------------ *)

let entry seq op = Oplog.make ~seq ~client:0 op

let test_coalesce_create_unlink () =
  let entries =
    [
      entry 1 (Oplog.Create { parent = 1; name = "tmp"; inum = 9; dir = false });
      entry 2 (Oplog.Write { inum = 9; offset = 0; data = Data.zero ~len:100 });
      entry 3 (Oplog.Unlink { parent = 1; name = "tmp"; inum = 9 });
      entry 4 (Oplog.Create { parent = 1; name = "keep"; inum = 10; dir = false });
    ]
  in
  let survivors, removed = Coalesce.run entries in
  Alcotest.(check int) "three removed" 3 removed;
  Alcotest.(check int) "one kept" 1 (List.length survivors)

let test_coalesce_overwrite () =
  let entries =
    [
      entry 1 (Oplog.Write { inum = 5; offset = 0; data = Data.zero ~len:100 });
      entry 2 (Oplog.Write { inum = 5; offset = 0; data = Data.zero ~len:100 });
      entry 3 (Oplog.Write { inum = 5; offset = 50; data = Data.zero ~len:10 });
    ]
  in
  let survivors, removed = Coalesce.run entries in
  (* Entry 1 is fully shadowed by entry 2; entry 2 is only partially
     shadowed by entry 3. *)
  Alcotest.(check int) "one removed" 1 removed;
  Alcotest.(check (list int))
    "survivors in order" [ 2; 3 ]
    (List.map (fun (e : Oplog.entry) -> e.Oplog.seq) survivors)

let test_coalesce_truncate_shadows () =
  let entries =
    [
      entry 1 (Oplog.Write { inum = 5; offset = 1000; data = Data.zero ~len:50 });
      entry 2 (Oplog.Truncate { inum = 5; size = 100 });
    ]
  in
  let _, removed = Coalesce.run entries in
  Alcotest.(check int) "write beyond truncate removed" 1 removed

let test_coalesce_preserves_unrelated () =
  let entries =
    [
      entry 1 (Oplog.Unlink { parent = 1; name = "old"; inum = 3 });
      entry 2 (Oplog.Write { inum = 4; offset = 0; data = Data.zero ~len:10 });
    ]
  in
  let survivors, removed = Coalesce.run entries in
  Alcotest.(check int) "nothing removed" 0 removed;
  Alcotest.(check int) "both kept" 2 (List.length survivors)

let prop_coalesce_never_grows =
  QCheck.Test.make ~name:"coalescing never adds entries" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_bound 3) (int_bound 4)))
    (fun cmds ->
      let entries =
        List.mapi
          (fun i (kind, file) ->
            let inum = 100 + file in
            let op =
              match kind with
              | 0 ->
                  Oplog.Create
                    { parent = 1; name = Printf.sprintf "f%d" file; inum; dir = false }
              | 1 -> Oplog.Write { inum; offset = i * 10; data = Data.zero ~len:20 }
              | 2 -> Oplog.Unlink { parent = 1; name = Printf.sprintf "f%d" file; inum }
              | _ -> Oplog.Truncate { inum; size = i * 5 }
            in
            entry (i + 1) op)
          cmds
      in
      let survivors, removed = Coalesce.run entries in
      List.length survivors + removed = List.length entries)

(* A write is dropped exactly when every byte it wrote is rewritten by
   a later write to the same inode or lies at or past a later truncate
   point: checked byte by byte against the coverage map's answer. *)
let prop_coalesce_matches_model =
  QCheck.Test.make ~name:"coalescing drops exactly the shadowed writes"
    ~count:300
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (quad (int_bound 1) (int_bound 4) (int_bound 200) (int_range 1 50)))
    (fun cmds ->
      let ops =
        Array.of_list
          (List.map
             (fun (file, kind, at, len) ->
               let inum = 100 + file in
               if kind = 0 then Oplog.Truncate { inum; size = at }
               else Oplog.Write { inum; offset = at; data = Data.zero ~len })
             cmds)
      in
      let n = Array.length ops in
      let shadowed i =
        match ops.(i) with
        | Oplog.Write { inum; offset; data } ->
            let byte_covered b =
              let hit = ref false in
              for j = i + 1 to n - 1 do
                match ops.(j) with
                | Oplog.Write { inum = ij; offset = o; data = d }
                  when ij = inum && o <= b && b < o + Data.length d ->
                    hit := true
                | Oplog.Truncate { inum = ij; size } when ij = inum && size <= b
                  ->
                    hit := true
                | _ -> ()
              done;
              !hit
            in
            let all = ref true in
            for b = offset to offset + Data.length data - 1 do
              if not (byte_covered b) then all := false
            done;
            !all
        | _ -> false
      in
      let expected =
        List.filter (fun seq -> not (shadowed (seq - 1))) (List.init n succ)
      in
      let survivors, removed =
        Coalesce.run (List.mapi (fun i op -> entry (i + 1) op) (Array.to_list ops))
      in
      List.map (fun (e : Oplog.entry) -> e.Oplog.seq) survivors = expected
      && removed = n - List.length expected)

(* ------------------------------------------------------------------ *)
(* Kernel worker and isolated mode                                     *)
(* ------------------------------------------------------------------ *)

let test_kworker_modes_copy () =
  List.iter
    (fun mode ->
      run_sim (fun () ->
          let topo = Hw.Topology.create ~nodes:1 () in
          let node = Hw.Topology.primary topo in
          let kw =
            Kworker.create ~mode ~params:test_params ~node ()
          in
          let r =
            Kworker.submit kw ~from:(Net.Loc.Nic node)
              { Kworker.total_bytes = mib 1; list_entries = 16 }
          in
          Alcotest.(check bool)
            (Kworker.copy_mode_name mode ^ " ok")
            true (r = `Ok);
          Alcotest.(check int)
            (Kworker.copy_mode_name mode ^ " bytes")
            (mib 1) (Kworker.bytes_copied kw)))
    [
      Kworker.Cpu_memcpy;
      Kworker.Dma_polling;
      Kworker.Dma_polling_batch;
      Kworker.Dma_interrupt_batch;
    ]

let test_kworker_no_copy_does_nothing () =
  run_sim (fun () ->
      let topo = Hw.Topology.create ~nodes:1 () in
      let node = Hw.Topology.primary topo in
      let kw = Kworker.create ~mode:Kworker.No_copy ~params:test_params ~node () in
      ignore
        (Kworker.submit kw ~from:(Net.Loc.Nic node)
           { Kworker.total_bytes = mib 1; list_entries = 16 });
      Alcotest.(check int) "nothing copied" 0 (Kworker.bytes_copied kw))

let test_kworker_cpu_memcpy_burns_host_cpu () =
  run_sim (fun () ->
      let topo = Hw.Topology.create ~nodes:1 () in
      let node = Hw.Topology.primary topo in
      let acct = Stats.Busy.create () in
      let kw =
        Kworker.create ~mode:Kworker.Cpu_memcpy ~account:acct
          ~params:test_params ~node ()
      in
      ignore
        (Kworker.submit kw ~from:(Net.Loc.Nic node)
           { Kworker.total_bytes = mib 8; list_entries = 16 });
      let interrupt_acct = Stats.Busy.create () in
      let kw2 =
        Kworker.create ~mode:Kworker.Dma_interrupt_batch ~account:interrupt_acct
          ~params:test_params ~node ()
      in
      ignore
        (Kworker.submit kw2 ~from:(Net.Loc.Nic node)
           { Kworker.total_bytes = mib 8; list_entries = 16 });
      Alcotest.(check bool)
        (Printf.sprintf "memcpy (%dns) >> interrupt (%dns)"
           (Stats.Busy.busy_time acct)
           (Stats.Busy.busy_time interrupt_acct))
        true
        (Stats.Busy.busy_time acct > 10 * Stats.Busy.busy_time interrupt_acct))

let test_isolated_mode_on_host_crash () =
  run_sim (fun () ->
      let d = make_cluster () in
      let mid = Deployment.node d 1 in
      Nicfs.start_monitor mid.Deployment.nicfs;
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      (* Crash replica-1's host. *)
      Kworker.crash mid.Deployment.kworker;
      Engine.sleep (2 * test_params.Params.hb_interval);
      Alcotest.(check bool) "isolated mode entered" true
        (Nicfs.isolated mid.Deployment.nicfs);
      (* Writes + fsync still complete across the chain. *)
      ops.Dfs_intf.append fd (Data.synthetic ~seed:1 ~len:(kib 64));
      ops.Dfs_intf.fsync fd;
      Alcotest.(check bool) "replication continued" true
        (Nicfs.replicated_wire_bytes mid.Deployment.nicfs >= kib 64);
      (* Host recovers. *)
      Kworker.recover mid.Deployment.kworker;
      Engine.sleep (2 * test_params.Params.hb_interval);
      Alcotest.(check bool) "isolated mode left" false
        (Nicfs.isolated mid.Deployment.nicfs);
      Nicfs.stop_monitor mid.Deployment.nicfs;
      Deployment.stop d)

(* ------------------------------------------------------------------ *)
(* Flow control                                                        *)
(* ------------------------------------------------------------------ *)

let test_flow_control_caps_nic_memory () =
  run_sim (fun () ->
      (* Tiny NIC memory: chunks must throttle instead of overflowing. *)
      let cfg = { Hw.Config.testbed_25gbe with Hw.Config.nic_mem_capacity = mib 1 } in
      let params = { test_params with Params.chunk_bytes = 128 * 1024 } in
      let d = Deployment.create ~cfg ~params ~nodes:3 () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      let peak = ref 0.0 in
      let watcher_stop = ref false in
      Engine.spawn (fun () ->
          while not !watcher_stop do
            let frac =
              Hw.Smartnic.mem_frac (Deployment.primary d).Deployment.node.Hw.Node.nic
            in
            if frac > !peak then peak := frac;
            Engine.sleep (Time.us 50)
          done);
      for i = 0 to 255 do
        ops.Dfs_intf.write fd ~pos:(i * kib 16)
          (Data.synthetic ~seed:i ~len:(kib 16))
      done;
      ops.Dfs_intf.fsync fd;
      Nicfs.flush (Deployment.primary d).Deployment.nicfs ~client:1;
      watcher_stop := true;
      Alcotest.(check bool)
        (Printf.sprintf "peak NIC memory %.2f stayed near watermark" !peak)
        true
        (!peak <= params.Params.hi_watermark +. 0.35);
      Deployment.stop d)

(* ------------------------------------------------------------------ *)
(* NotParallel baseline behaves worse                                  *)
(* ------------------------------------------------------------------ *)

let write_one_mb_and_fsync d =
  let c = Deployment.add_client d ~id:1 in
  let ops = Libfs.ops c in
  let fd = ops.Dfs_intf.create "/f" in
  let t0 = Engine.now () in
  for i = 0 to 63 do
    ops.Dfs_intf.write fd ~pos:(i * kib 16) (Data.synthetic ~seed:i ~len:(kib 16))
  done;
  ops.Dfs_intf.fsync fd;
  Engine.now () - t0

let test_pipeline_beats_sequential () =
  let t_par = run_sim (fun () ->
      let d = make_cluster ~pipeline_parallelism:true () in
      let r = write_one_mb_and_fsync d in
      Deployment.stop d;
      r)
  in
  let t_seq = run_sim (fun () ->
      let d = make_cluster ~pipeline_parallelism:false () in
      let r = write_one_mb_and_fsync d in
      Deployment.stop d;
      r)
  in
  Alcotest.(check bool)
    (Printf.sprintf "parallel (%s) faster than sequential (%s)"
       (Time.to_string t_par) (Time.to_string t_seq))
    true (t_par < t_seq)


(* ------------------------------------------------------------------ *)
(* Recovery (SS3.6)                                                    *)
(* ------------------------------------------------------------------ *)

let test_history_recorded_at_publication () =
  run_sim (fun () ->
      let d = make_cluster () in
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/h" in
      ops.Dfs_intf.append fd (Data.synthetic ~seed:1 ~len:(kib 64));
      Nicfs.flush (Deployment.primary d).Deployment.nicfs ~client:1;
      let hist = Nicfs.history (Deployment.primary d).Deployment.nicfs in
      Alcotest.(check bool) "publication recorded inode updates" true
        (Cluster.History.inodes_since hist ~epoch:0 <> []);
      Deployment.stop d)

let test_recovery_resyncs_missed_inodes () =
  run_sim (fun () ->
      let d = make_cluster () in
      let manager = Cluster.Manager.create () in
      let primary = (Deployment.primary d).Deployment.nicfs in
      let mid = (Deployment.node d 1).Deployment.nicfs in
      (* Replica-1 is down, so only the live nodes are registered for
         epoch notifications. *)
      List.iter
        (fun (n : Deployment.node_rt) ->
          let nicfs = n.Deployment.nicfs in
          Cluster.Manager.register manager
            ~id:(Nicfs.node nicfs).Hw.Node.id
            ~ping:(fun () -> Nicfs.ping nicfs)
            ~on_epoch:(fun e -> Nicfs.set_epoch nicfs e) ())
        [ Deployment.primary d; Deployment.node d 2 ];
      (* Epoch 1: normal writes. *)
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      let fd = ops.Dfs_intf.create "/pre" in
      ops.Dfs_intf.append fd (Data.synthetic ~seed:1 ~len:(kib 32));
      Nicfs.flush primary ~client:1;
      (* Replica-1 "goes down": the manager bumps the epoch; replica-1
         keeps its old persisted epoch. *)
      let down_epoch = Nicfs.epoch mid in
      ignore (Cluster.Manager.bump_epoch manager : int);
      Nicfs.set_epoch primary (Cluster.Manager.epoch manager);
      (* Updates replica-1 misses. *)
      let fd2 = ops.Dfs_intf.create "/during-downtime" in
      ops.Dfs_intf.append fd2 (Data.synthetic ~seed:2 ~len:(kib 64));
      Nicfs.flush primary ~client:1;
      (* Recovery pulls exactly the missed inodes from the primary. *)
      let stats =
        Recovery.run ~manager ~recovering:mid ~source:primary ()
      in
      Alcotest.(check int) "from epoch" down_epoch stats.Recovery.from_epoch;
      Alcotest.(check bool) "epoch advanced" true
        (stats.Recovery.to_epoch > down_epoch);
      Alcotest.(check bool) "missed inodes resynced" true
        (stats.Recovery.inodes_resynced >= 1);
      Alcotest.(check bool) "bytes fetched cover the file" true
        (stats.Recovery.bytes_fetched >= kib 64);
      Alcotest.(check bool) "recovery took simulated time" true
        (stats.Recovery.elapsed > 0);
      Deployment.stop d)

let test_recovery_invalidates_stale_logs () =
  run_sim (fun () ->
      let d = make_cluster () in
      let manager = Cluster.Manager.create () in
      let primary = (Deployment.primary d).Deployment.nicfs in
      let mid = (Deployment.node d 1).Deployment.nicfs in
      Cluster.Manager.register manager ~id:1
        ~ping:(fun () -> true)
        ~on_epoch:(fun _ -> ()) ();
      (* A stale local log on the recovering node touching an inode the
         primary has updated since. *)
      let c = Deployment.add_client d ~id:1 in
      let ops = Libfs.ops c in
      (* The updates happen in an epoch the recovering node missed. *)
      ignore (Cluster.Manager.bump_epoch manager : int);
      Nicfs.set_epoch primary (Cluster.Manager.epoch manager);
      let fd = ops.Dfs_intf.create "/shared" in
      ops.Dfs_intf.append fd (Data.synthetic ~seed:3 ~len:(kib 32));
      Nicfs.flush primary ~client:1;
      let touched =
        Cluster.History.inodes_since (Nicfs.history primary) ~epoch:0
      in
      let stale_log = Oplog.Log.create ~capacity:(kib 64) () in
      (match touched with
      | inum :: _ ->
          ignore
            (Oplog.Log.append stale_log
               (Oplog.make ~seq:1 ~client:9
                  (Oplog.Write { inum; offset = 0; data = Data.zero ~len:16 }))
              : (unit, [ `Full ]) result)
      | [] -> Alcotest.fail "no touched inodes");
      let stats =
        Recovery.run ~invalidate_logs:[ stale_log ] ~manager ~recovering:mid
          ~source:primary ()
      in
      Alcotest.(check int) "stale entry invalidated" 1
        stats.Recovery.log_entries_invalidated;
      Alcotest.(check int) "log drained" 0 (Oplog.Log.used_bytes stale_log);
      Deployment.stop d)

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "linefs"
    [
      ( "io",
        [
          tc "write/read roundtrip" `Quick test_write_read_roundtrip;
          tc "read spans log+public" `Quick test_read_spans_log_and_public;
          tc "namespace ops" `Quick test_namespace_ops;
          tc "open missing fails" `Quick test_open_missing_file_fails;
        ] );
      ( "pipeline",
        [
          tc "publication reclaims log" `Quick test_publication_reclaims_log;
          tc "reclaim cost flat in files" `Quick
            test_reclaim_cost_independent_of_files;
          tc "append allocation flat in file length" `Quick
            test_append_alloc_flat_in_file_length;
          tc "kick on chunk boundary" `Quick test_pipeline_kick_on_chunk_boundary;
          tc "stage latencies recorded" `Quick test_stage_latencies_recorded;
          tc "parallel beats sequential" `Quick test_pipeline_beats_sequential;
        ] );
      ( "replication",
        [
          tc "fsync waits for replication" `Quick test_fsync_waits_for_replication;
          tc "reaches all replicas" `Quick test_replication_reaches_all_replicas;
          tc "empty fsync is cheap" `Quick test_fsync_without_writes_is_cheap;
          tc "single node" `Quick test_single_node_no_replication;
          tc "multi-client isolation" `Quick test_multi_client_isolation;
        ] );
      ( "crash-consistency",
        [
          tc "log replay rebuilds state" `Quick test_log_replay_rebuilds_state;
          tc "prefix replay consistent" `Quick test_log_prefix_replay_consistent;
        ] );
      ( "leases",
        [
          tc "cached after first acquire" `Quick test_lease_cached_after_first_acquire;
          tc "conflict blocks second writer" `Quick test_lease_conflict_blocks_second_writer;
          tc "readers share" `Quick test_lease_readers_share;
          tc "fsync waits for persistence" `Quick test_fsync_waits_for_lease_persistence;
        ] );
      ( "coalescing",
        [
          tc "create+unlink cancels" `Quick test_coalesce_create_unlink;
          tc "overwrite shadows" `Quick test_coalesce_overwrite;
          tc "truncate shadows" `Quick test_coalesce_truncate_shadows;
          tc "unrelated preserved" `Quick test_coalesce_preserves_unrelated;
          qt prop_coalesce_never_grows;
          qt prop_coalesce_matches_model;
        ] );
      ( "kworker",
        [
          tc "all copy modes work" `Quick test_kworker_modes_copy;
          tc "no-copy does nothing" `Quick test_kworker_no_copy_does_nothing;
          tc "memcpy burns host cpu" `Quick test_kworker_cpu_memcpy_burns_host_cpu;
          tc "isolated mode on crash" `Quick test_isolated_mode_on_host_crash;
        ] );
      ( "flow-control",
        [ tc "nic memory capped" `Quick test_flow_control_caps_nic_memory ] );
      ( "recovery",
        [
          tc "history recorded at publication" `Quick
            test_history_recorded_at_publication;
          tc "resyncs missed inodes" `Quick test_recovery_resyncs_missed_inodes;
          tc "invalidates stale logs" `Quick test_recovery_invalidates_stale_logs;
        ] );
    ]
