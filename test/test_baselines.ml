(* Tests for the baseline systems: Assise variants and the Ceph-like
   client-server DFS. *)

open Sim
open Storage
open Linefs
open Baselines

let kib n = n * 1024

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
  | None -> Alcotest.fail "simulation did not complete"

let with_assise ?(variant = Assise.Pessimistic) f =
  run_sim (fun () ->
      let sys = Assise.create ~params:test_params ~variant ~nodes:3 () in
      let r = f sys in
      Assise.stop sys;
      r)

let test_assise_write_read () =
  with_assise (fun sys ->
      let c = Assise.add_client sys ~id:1 in
      let ops = Assise.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      ops.Dfs_intf.append fd (Data.of_string "assise data");
      let d = ops.Dfs_intf.read fd ~pos:0 ~len:100 in
      Alcotest.(check string) "content" "assise data"
        (Bytes.to_string (Data.to_bytes d)))

let test_assise_fsync_replicates () =
  with_assise (fun sys ->
      let c = Assise.add_client sys ~id:1 in
      let ops = Assise.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      ops.Dfs_intf.append fd (Data.synthetic ~seed:1 ~len:(kib 64));
      ops.Dfs_intf.fsync fd;
      Alcotest.(check bool) "wire bytes shipped" true
        (Assise.replication_wire_bytes sys >= kib 64))

let test_assise_fsync_blocks_until_replicated () =
  (* Latency of a 16 KB write+fsync must include at least the two-hop
     transfer time. *)
  let elapsed =
    with_assise (fun sys ->
        let c = Assise.add_client sys ~id:1 in
        let ops = Assise.ops c in
        let fd = ops.Dfs_intf.create "/f" in
        let t0 = Engine.now () in
        ops.Dfs_intf.append fd (Data.synthetic ~seed:1 ~len:(kib 16));
        ops.Dfs_intf.fsync fd;
        Engine.now () - t0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "replication latency present (%s)" (Time.to_string elapsed))
    true
    (elapsed >= Time.us 10 && elapsed <= Time.us 500)

let test_assise_busy_poll_burns_cpu () =
  (* Pessimistic replication busy-polls: DFS host CPU use must be a
     large fraction of the replication wall time. *)
  with_assise (fun sys ->
      let c = Assise.add_client sys ~id:1 in
      let ops = Assise.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      let t0 = Engine.now () in
      for i = 0 to 63 do
        ops.Dfs_intf.write fd ~pos:(i * kib 16)
          (Data.synthetic ~seed:i ~len:(kib 16))
      done;
      ops.Dfs_intf.fsync fd;
      let wall = Engine.now () - t0 in
      let dfs_cpu =
        Stats.Busy.busy_time (Assise.dfs_host_cpu sys ~node:0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "primary DFS cpu %s vs wall %s" (Time.to_string dfs_cpu)
           (Time.to_string wall))
        true
        (dfs_cpu > wall / 2))

let test_bg_repl_overlaps () =
  (* BgRepl replicates proactively, so the final fsync is cheaper than
     Pessimistic's. *)
  let measure variant =
    with_assise ~variant (fun sys ->
        let c = Assise.add_client sys ~id:1 in
        let ops = Assise.ops c in
        let fd = ops.Dfs_intf.create "/f" in
        (* 2 MB: comfortably below the 4 MB test log, so replication is
           driven purely by the variant's policy. *)
        for i = 0 to 127 do
          ops.Dfs_intf.write fd ~pos:(i * kib 16)
            (Data.synthetic ~seed:i ~len:(kib 16))
        done;
        let t0 = Engine.now () in
        ops.Dfs_intf.fsync fd;
        Engine.now () - t0)
  in
  let t_pess = measure Assise.Pessimistic in
  let t_bg = measure Assise.Bg_repl in
  Alcotest.(check bool)
    (Printf.sprintf "bg fsync (%s) < pessimistic fsync (%s)"
       (Time.to_string t_bg) (Time.to_string t_pess))
    true (t_bg < t_pess)

let test_hyperloop_no_replica_poll () =
  (* Hyperloop must use far less host CPU for replication than
     pessimistic Assise. *)
  let cpu_of variant =
    with_assise ~variant (fun sys ->
        let c = Assise.add_client sys ~id:1 in
        let ops = Assise.ops c in
        let fd = ops.Dfs_intf.create "/f" in
        for i = 0 to 127 do
          ops.Dfs_intf.write fd ~pos:(i * kib 16)
            (Data.synthetic ~seed:i ~len:(kib 16))
        done;
        ops.Dfs_intf.fsync fd;
        Stats.Busy.busy_time (Assise.dfs_host_cpu sys ~node:0))
  in
  let cpu_assise = cpu_of Assise.Pessimistic in
  let cpu_hyper = cpu_of Assise.Hyperloop in
  Alcotest.(check bool)
    (Printf.sprintf "hyperloop cpu (%s) << assise cpu (%s)"
       (Time.to_string cpu_hyper) (Time.to_string cpu_assise))
    true
    (cpu_hyper * 2 < cpu_assise)

let test_assise_log_replay () =
  with_assise (fun sys ->
      let c = Assise.add_client sys ~id:1 in
      let ops = Assise.ops c in
      ops.Dfs_intf.mkdir "/d";
      let fd = ops.Dfs_intf.create "/d/f" in
      ops.Dfs_intf.append fd (Data.of_string "xyz");
      let replayed = Fs_state.create () in
      Oplog.Log.iter (Assise.client_log c) (fun e ->
          match Fs_state.apply replayed e.Oplog.op with
          | Ok () -> ()
          | Error err ->
              Alcotest.failf "replay: %s" (Fs_state.error_to_string err));
      match Fs_state.resolve replayed "/d/f" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "resolve: %s" (Fs_state.error_to_string e))

let test_assise_log_wraps variant () =
  (* Four logs' worth through one client: appends block on a full log
     until SharedFS digestion reclaims it, and reads must still see
     every byte, whether it is still in the log or already digested. *)
  with_assise ~variant (fun sys ->
      let c = Assise.add_client sys ~id:1 in
      let ops = Assise.ops c in
      let piece = kib 64 in
      let pieces = 4 * test_params.Params.log_bytes / piece in
      let fd = ops.Dfs_intf.create "/big" in
      for i = 0 to pieces - 1 do
        ops.Dfs_intf.append fd (Data.synthetic ~seed:i ~len:piece)
      done;
      ops.Dfs_intf.fsync fd;
      Alcotest.(check (option int))
        "size" (Some (pieces * piece))
        (ops.Dfs_intf.file_size "/big");
      for i = 0 to pieces - 1 do
        let d = ops.Dfs_intf.read fd ~pos:(i * piece) ~len:piece in
        if not (Data.equal d (Data.synthetic ~seed:i ~len:piece)) then
          Alcotest.failf "piece %d differs" i
      done;
      Assise.flush_all sys;
      Alcotest.(check int) "log drained" 0
        (Oplog.Log.used_bytes (Assise.client_log c)))

let test_ceph_write_path () =
  run_sim (fun () ->
      let sys = Cephlike.create ~nodes:3 () in
      let c = Cephlike.add_client sys ~id:1 in
      let ops = Cephlike.ops c in
      let fd = ops.Dfs_intf.create "/f" in
      for i = 0 to 63 do
        ops.Dfs_intf.write fd ~pos:(i * 4096) (Data.zero ~len:4096)
      done;
      ops.Dfs_intf.fsync fd;
      Alcotest.(check (option int))
        "size visible" (Some (64 * 4096))
        (ops.Dfs_intf.file_size "/f");
      (* Server burned CPU for the IOs. *)
      Alcotest.(check bool) "server cpu > 0" true
        (Stats.Busy.busy_time (Cephlike.server_cpu sys) > 0);
      Alcotest.(check bool) "client cpu > 0" true
        (Stats.Busy.busy_time (Cephlike.client_host_cpu sys) > 0))

let test_ceph_client_cpu_flat_vs_assise () =
  (* Table 1's core contrast at high client counts on fast networks:
     Assise burns more client-node CPU than Ceph. *)
  let ceph_cpu =
    run_sim (fun () ->
        let sys = Cephlike.create ~cfg:Hw.Config.testbed_100gbe ~nodes:3 () in
        let n = 4 in
        let live = ref n in
        let don = Ivar.create () in
        for i = 1 to n do
          let c = Cephlike.add_client sys ~id:i in
          let ops = Cephlike.ops c in
          Engine.spawn (fun () ->
              let fd = ops.Dfs_intf.create (Printf.sprintf "/f%d" i) in
              for b = 0 to 511 do
                ops.Dfs_intf.write fd ~pos:(b * 4096) (Data.zero ~len:4096)
              done;
              ops.Dfs_intf.fsync fd;
              decr live;
              if !live = 0 then Ivar.fill don ())
        done;
        Ivar.read don;
        let wall = Engine.now () in
        Stats.Busy.utilization (Cephlike.client_host_cpu sys) ~over:wall)
  in
  let assise_cpu =
    run_sim (fun () ->
        let sys =
          Assise.create ~cfg:Hw.Config.testbed_100gbe ~params:test_params
            ~nodes:3 ()
        in
        let n = 4 in
        let live = ref n in
        let don = Ivar.create () in
        for i = 1 to n do
          let c = Assise.add_client sys ~id:i in
          let ops = Assise.ops c in
          Engine.spawn (fun () ->
              let fd = ops.Dfs_intf.create (Printf.sprintf "/f%d" i) in
              for b = 0 to 511 do
                ops.Dfs_intf.write fd ~pos:(b * 4096) (Data.zero ~len:4096)
              done;
              ops.Dfs_intf.fsync fd;
              decr live;
              if !live = 0 then Ivar.fill don ())
        done;
        Ivar.read don;
        let wall = Engine.now () in
        Assise.stop sys;
        Stats.Busy.utilization (Assise.dfs_host_cpu sys ~node:0) ~over:wall)
  in
  Alcotest.(check bool)
    (Printf.sprintf "assise %.2f cores > ceph %.2f cores" assise_cpu ceph_cpu)
    true
    (assise_cpu > ceph_cpu)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "baselines"
    [
      ( "assise",
        [
          tc "write/read" `Quick test_assise_write_read;
          tc "fsync replicates" `Quick test_assise_fsync_replicates;
          tc "fsync blocks" `Quick test_assise_fsync_blocks_until_replicated;
          tc "busy poll burns cpu" `Quick test_assise_busy_poll_burns_cpu;
          tc "bg-repl overlaps" `Quick test_bg_repl_overlaps;
          tc "hyperloop saves cpu" `Quick test_hyperloop_no_replica_poll;
          tc "log replay" `Quick test_assise_log_replay;
          tc "log wraps (assise)" `Quick
            (test_assise_log_wraps Assise.Pessimistic);
          tc "log wraps (bg-repl)" `Quick (test_assise_log_wraps Assise.Bg_repl);
          tc "log wraps (hyperloop)" `Quick
            (test_assise_log_wraps Assise.Hyperloop);
        ] );
      ( "cephlike",
        [
          tc "write path" `Quick test_ceph_write_path;
          tc "client cpu below assise" `Quick test_ceph_client_cpu_flat_vs_assise;
        ] );
    ]
