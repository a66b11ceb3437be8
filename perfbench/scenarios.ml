(* The benchmark's three workloads, each run as one repetition: build a
   3-node LineFS deployment in a fresh engine, start the antagonists,
   run the measured phase through an {!Opsmeter}-wrapped client, then
   (untimed) drain and check the output.  Everything a repetition
   reports is read from outside, through public accessors. *)

open Sim
open Linefs

type workload = Seqwrite_busy | Sort_compress | Varmail_busy

let all = [ Seqwrite_busy; Sort_compress; Varmail_busy ]

let name = function
  | Seqwrite_busy -> "seqwrite_busy"
  | Sort_compress -> "sort_compress"
  | Varmail_busy -> "varmail_busy"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Sizes of one repetition.  The defaults are the benchmark's; tests
   shrink them. *)
type size = {
  sw_clients : int;
  sw_client_mb : int;  (** per client, before the seeded jitter *)
  sort_records : int;
  vm_files : int;
  vm_threads : int;
  vm_ms : int;  (** simulated duration of the varmail phase *)
}

let default_size =
  {
    sw_clients = 4;
    sw_client_mb = 256;
    sort_records = 200_000;
    vm_files = 1_500;
    vm_threads = 48;
    vm_ms = 150;
  }

let io_bytes = 16 * 1024
let nodes = 3

(* What the rest of the deployment was doing, read at the phase
   boundaries. *)
type hw_snap = {
  host_busy : Time.t array;
  nic_busy : Time.t array;
  pcie_busy : Time.t array;
  tx_busy : Time.t array;
  pm_written : int array;
}

let hw_snap d =
  let per f = Array.init nodes (fun i -> f (Deployment.node d i).Deployment.node) in
  let busy b = Stats.Busy.busy_time b in
  {
    host_busy = per (fun n -> busy (Hw.Cpu.busy n.Hw.Node.host));
    nic_busy = per (fun n -> busy (Hw.Cpu.busy (Hw.Smartnic.cpu n.Hw.Node.nic)));
    pcie_busy = per (fun n -> busy (Hw.Bandwidth.busy (Hw.Pcie.link n.Hw.Node.pcie)));
    tx_busy = per (fun n -> busy (Hw.Bandwidth.busy (Hw.Netlink.egress n.Hw.Node.port)));
    pm_written = per (fun n -> Hw.Pm.bytes_written n.Hw.Node.pm);
  }

type snap = {
  wall : float;
  sim : Time.t;
  events : int;
  gc : Gc.stat;
  hw : hw_snap;
  dfs_cpu : Time.t;
  wire : int;
  published : int;
  kw_copied : int;
}

type fingerprint = {
  digest : int32 option;  (** primary [Fs_state.digest], if asked for *)
  wire_bytes : int;
  events : int;
  sim_elapsed : Time.t;
}

type rep = {
  setup_s : float;
  host_s : float;
  phase : snap * snap;  (** measured-phase start and end *)
  final : snap;  (** after the post-phase drain *)
  meter : Opsmeter.t;
  checks_run : int;
  checks_failed : int;
  unexpected_errors : int;
  fingerprint : fingerprint;
  stages : (string * Stats.Series.t) list list;  (** primary, per client *)
  ack_rtt : Stats.Series.t;
  lease_hits : int;
  lease_misses : int;
  cores : int array * int array;  (** host, NIC cores per node *)
  counters : (string * int) list;
  profile : (string * int * float * float) list;  (** traced reps only *)
}

let snap eng d =
  {
    wall = Unix.gettimeofday ();
    sim = Engine.now ();
    events = Engine.events_executed eng;
    gc = Gc.quick_stat ();
    hw = hw_snap d;
    dfs_cpu = Deployment.total_host_dfs_cpu d;
    wire = Deployment.replication_wire_bytes d;
    published =
      Array.fold_left ( + ) 0
        (Array.init nodes (fun i -> Nicfs.published_bytes (Deployment.node d i).Deployment.nicfs));
    kw_copied =
      Array.fold_left ( + ) 0
        (Array.init nodes (fun i -> Kworker.bytes_copied (Deployment.node d i).Deployment.kworker));
  }

let busy_replicas d =
  let bgs =
    List.map
      (fun i ->
        Workloads.Streamcluster.start_background
          ~node:(Deployment.node d i).Deployment.node ())
      [ 1; 2 ]
  in
  fun () -> List.iter Workloads.Streamcluster.stop bgs

(* Run [n] client bodies as their own processes and wait for all. *)
let join_clients n body =
  let live = ref n in
  let all_done = Ivar.create () in
  for i = 1 to n do
    Engine.spawn ~name:(Printf.sprintf "perfbench.client%d" i) (fun () ->
        body i;
        decr live;
        if !live = 0 then Ivar.fill all_done ())
  done;
  Ivar.read all_done

let params = { Params.default with Params.log_bytes = 32 * 1024 * 1024 }

let client_seed ~seed c = (seed * 1_000_003) + (c * 10_000_019)

(* The append sizes of each [seqwrite_busy] client: 16 KB +/- 512 B,
   drawn from the seed, so that runs on different seeds differ in
   simulated outcome as well as in content. *)
let seqwrite_sizes size ~seed =
  let n = size.sw_client_mb * 1024 * 1024 / io_bytes in
  Array.init size.sw_clients (fun c ->
      let rng = Rng.create (client_seed ~seed (c + 1)) in
      Array.init n (fun _ -> io_bytes - 512 + Rng.int rng 1025))

let seqwrite_path c = Printf.sprintf "/sw-%d" c

let seqwrite_client (ops : Dfs_intf.ops) ~c ~seed sizes =
  let fd = ops.Dfs_intf.create (seqwrite_path c) in
  Array.iteri
    (fun i len ->
      ops.Dfs_intf.append fd
        (Storage.Data.synthetic ~seed:(client_seed ~seed c + i) ~len))
    sizes;
  ops.Dfs_intf.fsync fd;
  ops.Dfs_intf.close fd

(* Read back every [stride]-th append of each client file, compare it
   with the generator that wrote it, and check the file size. *)
let check_seqwrite (ops : Dfs_intf.ops) sizes ~seed =
  let run = ref 0 and failed = ref 0 in
  let check ok =
    incr run;
    if not ok then incr failed
  in
  Array.iteri
    (fun c0 lens ->
      let c = c0 + 1 in
      let fd = ops.Dfs_intf.open_file (seqwrite_path c) in
      let stride = max 1 (Array.length lens / 16) in
      let pos = ref 0 in
      Array.iteri
        (fun i len ->
          if (i + seed + c) mod stride = 0 then begin
            let got = ops.Dfs_intf.read fd ~pos:!pos ~len in
            let want = Storage.Data.synthetic ~seed:(client_seed ~seed c + i) ~len in
            check (Storage.Data.equal got want)
          end;
          pos := !pos + len)
        lens;
      check (ops.Dfs_intf.file_size (seqwrite_path c) = Some !pos);
      ops.Dfs_intf.close fd)
    sizes;
  (!run, !failed)

(* Start the measured phase, then continue in a fresh event: the
   profiler only records events that start while it is on, and the
   phase's first work (e.g. sort record generation) must be in one. *)
let begin_phase meter =
  Opsmeter.start meter;
  Engine.yield ()

let run ?(size = default_size) ?(traced = false) ?(wrap = true) ?(digest = true) wl ~seed =
  let w_setup = Unix.gettimeofday () in
  let eng = Engine.create () in
  let out = ref None in
  Engine.spawn_root eng (fun () ->
      let busy = wl <> Sort_compress in
      let d =
        Deployment.create ~params
          ~dfs_prio:(if busy then Hw.Cpu.prio_high else Hw.Cpu.prio_normal)
          ~compression:(wl = Sort_compress) ~nodes ()
      in
      let stop_bg =
        if busy then busy_replicas d
        else
          let ip =
            Workloads.Iperf.start
              ~src:(Deployment.node d 1).Deployment.node
              ~dst:(Deployment.node d 2).Deployment.node ()
          in
          fun () -> Workloads.Iperf.stop ip
      in
      let start_snap = ref None in
      let on_start () =
        start_snap := Some (snap eng d);
        if traced then begin
          Engine.profile_reset ();
          Engine.profile_enable true
        end
      in
      let meter =
        Opsmeter.create
          ?start_on:(if wl = Varmail_busy then Some "filebench.t" else None)
          ~on_start ()
      in
      let n_clients = match wl with Seqwrite_busy -> size.sw_clients | _ -> 1 in
      let raw = List.init n_clients (fun i -> Libfs.ops (Deployment.add_client d ~id:(i + 1))) in
      let client = List.map (fun o -> if wrap then Opsmeter.wrap meter o else o) raw in
      let check =
        match wl with
        | Seqwrite_busy ->
            let sizes = seqwrite_sizes size ~seed in
            begin_phase meter;
            join_clients n_clients (fun c ->
                seqwrite_client (List.nth client (c - 1)) ~c ~seed sizes.(c - 1));
            fun () -> check_seqwrite (List.hd raw) sizes ~seed
        | Sort_compress -> (
            begin_phase meter;
            match
              Workloads.Tencent_sort.run ~ops:(List.hd client)
                ~node:(Deployment.primary d).Deployment.node
                ~records:size.sort_records ~zero_ratio:0.6 ~seed ()
            with
            | r ->
                (* The workload checks sortedness itself and fails its
                   process if the output is out of order. *)
                fun () -> (1, if r.output_bytes = size.sort_records * 100 then 0 else 1)
            | exception Failure _ -> fun () -> (1, 1))
        | Varmail_busy ->
            ignore
              (Workloads.Filebench.run ~ops:(List.hd client)
                 ~profile:Workloads.Filebench.Varmail ~files:size.vm_files
                 ~threads:size.vm_threads ~duration:(Time.ms size.vm_ms) ~seed ()
                : Workloads.Filebench.result);
            fun () -> (0, 0)
      in
      let end_snap = snap eng d in
      Opsmeter.stop meter;
      let profile =
        if traced then begin
          Engine.profile_enable false;
          Engine.profile_snapshot ()
        end
        else []
      in
      Deployment.flush_all d;
      let final = snap eng d in
      stop_bg ();
      let checks_run, checks_failed = check () in
      let unexpected =
        List.length
          (List.filter
             (fun (op, e) ->
               not (wl = Varmail_busy && op = Opsmeter.Unlink && e = Storage.Fs_state.Enoent))
             (Opsmeter.errors meter))
      in
      Deployment.stop d;
      let p = Deployment.primary d in
      let clients = Deployment.clients d in
      let stages =
        List.map
          (fun c -> Nicfs.stage_series p.Deployment.nicfs ~client:(Libfs.id c))
          clients
      in
      (* An unwrapped varmail run never sees its start marker. *)
      let s0 = Option.value !start_snap ~default:end_snap in
      out :=
        Some
          (fun ~events ~counters ->
            {
              setup_s = s0.wall -. w_setup;
              host_s = end_snap.wall -. s0.wall;
              phase = (s0, end_snap);
              final;
              meter;
              checks_run;
              checks_failed;
              unexpected_errors = unexpected;
              fingerprint =
                {
                  digest = (if digest then Some (Storage.Fs_state.digest p.Deployment.fs) else None);
                  wire_bytes = Deployment.replication_wire_bytes d;
                  events;
                  sim_elapsed = Engine.current_time eng;
                };
              stages;
              ack_rtt = Nicfs.ack_latency p.Deployment.nicfs;
              lease_hits = List.fold_left (fun a c -> a + Libfs.lease_hits c) 0 clients;
              lease_misses = List.fold_left (fun a c -> a + Libfs.lease_misses c) 0 clients;
              cores =
                ( Array.init nodes (fun i -> Hw.Cpu.cores (Deployment.node d i).Deployment.node.Hw.Node.host),
                  Array.init nodes (fun i ->
                      Hw.Cpu.cores (Hw.Smartnic.cpu (Deployment.node d i).Deployment.node.Hw.Node.nic)) );
              counters;
              profile;
            }));
  Engine.run eng;
  match !out with
  | Some f ->
      f ~events:(Engine.events_executed eng) ~counters:(Counters.all_in eng)
  | None -> failwith ("perfbench: " ^ name wl ^ " did not complete")
