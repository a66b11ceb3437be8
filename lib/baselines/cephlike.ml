open Sim
open Storage
open Linefs

(* Calibrated so one busy client moves ~1.25 GB/s of 4 KB IOs at ~100%
   of a core, and the single-threaded storage daemon caps the cluster
   near 1.4-1.6 GB/s (Table 1's Ceph column). *)
let client_per_op = Time.ns 1200
let client_copy_bps = 2e9
let server_per_op = Time.us 2
let server_copy_bps = 5e9
let window = 64 (* in-flight writes per client *)

type smsg =
  | Io of { bytes : int; done_ : unit Ivar.t }
  | Meta of { op : Oplog.op; result : (unit, Fs_state.error) result Ivar.t }

type t = {
  client_node : Hw.Node.t;
  server_node : Hw.Node.t;
  replica_node : Hw.Node.t option;
  fs : Fs_state.t; (* authoritative state on the server *)
  client_acct : Stats.Busy.t;
  server_acct : Stats.Busy.t;
  prio : Hw.Cpu.prio;
  mutable server : (smsg, unit) Net.Rpc.t option;
  mutable replica : (smsg, unit) Net.Rpc.t option;
  mutable cls : client list;
}

and client = {
  sys : t;
  cid : int;
  fds : Dfs_intf.fd_table;
  win : Semaphore.t;
  mutable inflight : int;
  drained : Cond.t;
}

let cpu_work bytes bps per_op =
  per_op + int_of_float (float_of_int bytes /. bps *. 1e9)

let server_handle t msg =
  match msg with
  | Io { bytes; done_ } ->
      Hw.Cpu.run ~prio:t.prio ~account:t.server_acct
        t.server_node.Hw.Node.host
        (cpu_work bytes server_copy_bps server_per_op);
      Hw.Pm.write t.server_node.Hw.Node.pm bytes;
      (* Replicate to the secondary daemon. *)
      (match t.replica with
      | Some rep ->
          Net.Rdma.move
            ~src:(Net.Loc.Host t.server_node)
            ~dst:(Net.Rpc.loc rep) bytes;
          Net.Rpc.call rep ~from:(Net.Loc.Host t.server_node)
            (Io { bytes; done_ = Ivar.create () })
      | None -> ());
      Ivar.fill done_ ()
  | Meta { op; result } ->
      Hw.Cpu.run ~prio:t.prio ~account:t.server_acct
        t.server_node.Hw.Node.host server_per_op;
      Ivar.fill result (Fs_state.apply t.fs op)

let replica_handle t msg =
  match msg with
  | Io { bytes; done_ } ->
      (match t.replica_node with
      | Some n ->
          Hw.Cpu.run ~prio:t.prio ~account:t.server_acct n.Hw.Node.host
            (cpu_work bytes server_copy_bps server_per_op);
          Hw.Pm.write n.Hw.Node.pm bytes
      | None -> ());
      Ivar.fill done_ ()
  | Meta { result; _ } -> Ivar.fill result (Ok ())

let create ?(cfg = Hw.Config.testbed_25gbe) ?(dfs_prio = Hw.Cpu.prio_normal)
    ~nodes () =
  if nodes < 2 then invalid_arg "Cephlike.create: need at least 2 nodes";
  let topo = Hw.Topology.create ~cfg ~nodes () in
  let t =
    {
      client_node = Hw.Topology.node topo 0;
      server_node = Hw.Topology.node topo 1;
      replica_node = (if nodes > 2 then Some (Hw.Topology.node topo 2) else None);
      fs = Fs_state.create ();
      client_acct = Stats.Busy.create ();
      server_acct = Stats.Busy.create ();
      prio = dfs_prio;
      server = None;
      replica = None;
      cls = [];
    }
  in
  (match t.replica_node with
  | Some n ->
      t.replica <-
        Some
          (Net.Rpc.create ~dispatch_cost:(Time.us 1) ~name:"ceph.replica"
             ~loc:(Net.Loc.Host n)
             ~kind:(Net.Rpc.Event { workers = 8; prio = dfs_prio })
             ~handler:(replica_handle t) ())
  | None -> ());
  t.server <-
    Some
      (Net.Rpc.create ~dispatch_cost:(Time.us 1) ~name:"ceph.osd"
         ~loc:(Net.Loc.Host t.server_node)
         ~kind:(Net.Rpc.Event { workers = 8; prio = dfs_prio })
         ~handler:(server_handle t) ());
  t

let server t =
  match t.server with Some s -> s | None -> failwith "cephlike: not started"

let client_cpu c work =
  Hw.Cpu.run ~prio:c.sys.prio ~account:c.sys.client_acct
    c.sys.client_node.Hw.Node.host work

let meta_rpc c op =
  client_cpu c client_per_op;
  let result = Ivar.create () in
  Net.Rpc.post (server c.sys) ~from:(Net.Loc.Host c.sys.client_node)
    (Meta { op; result });
  match Ivar.read result with
  | Ok () -> ()
  | Error e -> Dfs_intf.fail e (Format.asprintf "%a" Oplog.pp_op op)

let submit_write c bytes =
  (* Client-side kernel stack + copy. *)
  client_cpu c (cpu_work bytes client_copy_bps client_per_op);
  Semaphore.acquire c.win;
  c.inflight <- c.inflight + 1;
  Engine.spawn ~name:"ceph.io" (fun () ->
      let done_ = Ivar.create () in
      Net.Rdma.move
        ~src:(Net.Loc.Host c.sys.client_node)
        ~dst:(Net.Loc.Host c.sys.server_node)
        bytes;
      Net.Rpc.post (server c.sys) ~from:(Net.Loc.Host c.sys.client_node)
        (Io { bytes; done_ });
      Ivar.read done_;
      Semaphore.release c.win;
      c.inflight <- c.inflight - 1;
      if c.inflight = 0 then Cond.broadcast c.drained)

let drain c =
  while c.inflight > 0 do
    Cond.await c.drained
  done

let fail = Dfs_intf.fail

let alloc_fd c file = Dfs_intf.alloc_fd c.fds file
let the_file c fd = Dfs_intf.the_file c.fds fd
let resolve_exn c path = Dfs_intf.resolve_exn c.sys.fs path

let do_write c fd ~pos data =
  let f = the_file c fd in
  (* Record content on the server state (metadata kept consistent),
     then stream the bytes asynchronously. *)
  (match
     Fs_state.apply c.sys.fs
       (Oplog.Write { inum = f.inum; offset = pos; data })
   with
  | Ok () -> ()
  | Error e -> fail e f.fpath);
  submit_write c (Data.length data);
  let endpos = pos + Data.length data in
  if endpos > f.append_pos then f.append_pos <- endpos

let ops c =
  {
    Dfs_intf.sysname = "Ceph-like";
    create =
      (fun path ->
        let parent_path, name = Dfs_intf.split_path path in
        let parent = resolve_exn c parent_path in
        let inum = Fs_state.alloc_inum c.sys.fs in
        meta_rpc c (Oplog.Create { parent; name; inum; dir = false });
        alloc_fd c { fpath = path; inum; append_pos = 0 });
    open_file =
      (fun path ->
        client_cpu c client_per_op;
        (* One metadata round trip to the server. *)
        let inum = resolve_exn c path in
        (* Same open permission check as LineFS and Assise (with the
           default rw mode it always passes; the conformance matrix
           still demands the same code on the same denial). *)
        if
          not
            (Fs_state.writable c.sys.fs inum
            || Fs_state.readable c.sys.fs inum)
        then fail Fs_state.Eacces path;
        Net.Rdma.move
          ~src:(Net.Loc.Host c.sys.client_node)
          ~dst:(Net.Loc.Host c.sys.server_node)
          64;
        Net.Rdma.move
          ~src:(Net.Loc.Host c.sys.server_node)
          ~dst:(Net.Loc.Host c.sys.client_node)
          64;
        alloc_fd c
          { fpath = path; inum; append_pos = Fs_state.file_size c.sys.fs inum });
    close = (fun fd -> Dfs_intf.close_fd c.fds fd);
    write = (fun fd ~pos data -> do_write c fd ~pos data);
    append =
      (fun fd data ->
        let f = the_file c fd in
        do_write c fd ~pos:f.append_pos data);
    read =
      (fun fd ~pos ~len ->
        let f = the_file c fd in
        client_cpu c client_per_op;
        (* Request round trip; validation happens at the server. *)
        Net.Rdma.move
          ~src:(Net.Loc.Host c.sys.client_node)
          ~dst:(Net.Loc.Host c.sys.server_node)
          64;
        match Fs_state.read c.sys.fs ~inum:f.inum ~pos ~len with
        | Error e -> fail e f.fpath
        | Ok d ->
            (* Bill PM, wire and client copy for the bytes actually
               returned (the EOF-clamped count), never the asked-for
               [len] — reads past EOF move no data. *)
            let actual = Data.length d in
            if actual > 0 then begin
              Hw.Pm.read c.sys.server_node.Hw.Node.pm actual;
              Net.Rdma.move
                ~src:(Net.Loc.Host c.sys.server_node)
                ~dst:(Net.Loc.Host c.sys.client_node)
                actual;
              client_cpu c (cpu_work actual client_copy_bps 0)
            end;
            d);
    fsync =
      (fun fd ->
        (* Unknown fds are Einval everywhere (LineFS checks first). *)
        ignore (the_file c fd : Dfs_intf.file);
        drain c);
    mkdir =
      (fun path ->
        let parent_path, name = Dfs_intf.split_path path in
        let parent = resolve_exn c parent_path in
        let inum = Fs_state.alloc_inum c.sys.fs in
        meta_rpc c (Oplog.Create { parent; name; inum; dir = true }));
    unlink =
      (fun path ->
        let parent_path, name = Dfs_intf.split_path path in
        let parent = resolve_exn c parent_path in
        let inum = resolve_exn c path in
        meta_rpc c (Oplog.Unlink { parent; name; inum }));
    rename =
      (fun src dst ->
        let src_parent_path, src_name = Dfs_intf.split_path src in
        let dst_parent_path, dst_name = Dfs_intf.split_path dst in
        let src_parent = resolve_exn c src_parent_path in
        let dst_parent = resolve_exn c dst_parent_path in
        let inum = resolve_exn c src in
        meta_rpc c
          (Oplog.Rename { src_parent; src_name; dst_parent; dst_name; inum }));
    file_size =
      (fun path ->
        match Fs_state.resolve c.sys.fs path with
        | Ok inum -> Some (Fs_state.file_size c.sys.fs inum)
        | Error _ -> None);
  }

let add_client t ~id =
  let c =
    {
      sys = t;
      cid = id;
      fds = Dfs_intf.fd_table ();
      win = Semaphore.create window;
      inflight = 0;
      drained = Cond.create ();
    }
  in
  t.cls <- c :: t.cls;
  c

let flush_all t = List.iter drain t.cls
let _ = fun (c : client) -> c.cid

let client_host_cpu t = t.client_acct
let server_cpu t = t.server_acct
