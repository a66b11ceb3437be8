open Sim

type node_rt = {
  node : Hw.Node.t;
  fs : Storage.Fs_state.t;
  kworker : Kworker.t;
  nicfs : Nicfs.t;
  dfs_host_cpu : Stats.Busy.t;
}

(* A client and the pipeline kick of its NICFS backend. *)
type client = { lib : Libfs.t; kick : unit -> unit }

type t = {
  prm : Params.t;
  topo : Hw.Topology.t;
  rts : node_rt array;
  dfs_prio : Hw.Cpu.prio;
  mutable cls : client list;
  monitoring : bool;
}

let create ?(cfg = Hw.Config.testbed_25gbe) ?(params = Params.default)
    ?(pipeline_parallelism = true) ?(kworker_mode = Kworker.Dma_interrupt_batch)
    ?(dfs_prio = Hw.Cpu.prio_normal) ?(compression = false)
    ?(coalescing = false) ?(monitor = false) ?(apply_on_publish = false)
    ~nodes () =
  let params = { params with Params.replicas = nodes } in
  let topo = Hw.Topology.create ~cfg ~nodes () in
  let build_rt node =
    let fs = Storage.Fs_state.create () in
    let dfs_host_cpu = Stats.Busy.create () in
    let kworker =
      Kworker.create ~mode:kworker_mode ~prio:dfs_prio
        ~account:dfs_host_cpu ~params ~node ()
    in
    (* Each NICFS runs in its own process group so fault injection
       can power-fail one node's SmartNIC without touching the
       others (the host-side kworker survives, as on real hardware
       where the host OS outlives a NIC reset). *)
    let group =
      Sim.Engine.make_group (Printf.sprintf "nicfs%d" node.Hw.Node.id)
    in
    let nicfs =
      Nicfs.create ~pipeline_parallelism ~coalescing ~compression
        ~apply_on_publish ~group ~params ~node ~fs ~kworker ()
    in
    { node; fs; kworker; nicfs; dfs_host_cpu }
  in
  let rts = Array.map build_rt topo.Hw.Topology.nodes in
  (* Wire the replication chain 0 -> 1 -> ... -> n-1, and tell each
     node exactly whose acks complete its chunks (everyone downstream)
     so chain reconfiguration can later shrink that set per node. *)
  Array.iteri
    (fun i rt ->
      let next = if i + 1 < Array.length rts then Some rts.(i + 1).nicfs else None in
      Nicfs.set_next_hop rt.nicfs next;
      let targets = ref [] in
      for j = Array.length rts - 1 downto i + 1 do
        targets := rts.(j).node.Hw.Node.id :: !targets
      done;
      Nicfs.set_repl_targets rt.nicfs ~targets:!targets)
    rts;
  if monitor then Array.iter (fun rt -> Nicfs.start_monitor rt.nicfs) rts;
  { prm = params; topo; rts; dfs_prio; cls = []; monitoring = monitor }

let params t = t.prm
let node_count t = Array.length t.rts
let node t i = t.rts.(i)
let primary t = t.rts.(0)
let replicas t = List.tl (Array.to_list t.rts)

(* Reconfigure the replication chain over the nodes [up] says are
   usable (served by NIC or host fallback — only dead nodes drop out),
   keeping id order.  Each survivor's ack-completion set shrinks to its
   live downstream, and the primary re-evaluates outstanding ack sets:
   chunks waiting only on dead replicas complete immediately, while
   chunks some survivor never persisted keep being retransmitted — now
   to the new successor — until the shrunk set acks.  Idempotent, so
   the cluster manager may call it on every service transition. *)
let rebuild_chain t ~up =
  let n = Array.length t.rts in
  let live = ref [] in
  for i = n - 1 downto 0 do
    if up i then live := i :: !live
  done;
  Array.iteri
    (fun i rt ->
      if up i then begin
        let downstream = List.filter (fun j -> j > i) !live in
        let next =
          match downstream with
          | [] -> None
          | j :: _ -> Some t.rts.(j).nicfs
        in
        Nicfs.set_next_hop rt.nicfs next;
        Nicfs.set_repl_targets rt.nicfs ~targets:downstream
      end
      else Nicfs.set_next_hop rt.nicfs None)
    t.rts;
  Nicfs.reeval_acks (primary t).nicfs

(* The LineFS backend of a client on node [rt]: leases, open checks
   and fsync are NICFS RPCs, and every chunk's worth of logged bytes
   (or a full log) kicks the NICFS pipeline.  Returns the backend and
   its kick. *)
let nicfs_backend rt ~params ~id =
  let from = Net.Loc.Host rt.node in
  let unchunked = ref 0 in
  let kick () =
    Nicfs.start_pipeline rt.nicfs ~from ~client:id;
    unchunked := 0
  in
  let backend =
    {
      Libfs.sysname = "LineFS";
      lease =
        (fun c inum ->
          Libfs.ensure_lease c inum ~acquire:(fun () ->
              Nicfs.lease_acquire rt.nicfs ~from ~client:id ~inum Lease.Write));
      open_check =
        (fun c path inum ->
          (* Open permission check runs on the NICFS (and asks the
             kernel worker to mmap public pages) — the Varmail-visible
             cost (§5.3). *)
          Libfs.cpu_release c;
          match
            Nicfs.open_check rt.nicfs ~from ~client:id ~inum ~write:true
          with
          | Ok () -> ()
          | Error e -> Dfs_intf.fail e path);
      log_full = (fun _ -> kick ());
      appended =
        (fun _ size ->
          unchunked := !unchunked + size;
          if !unchunked >= params.Params.chunk_bytes then kick ());
      fsync =
        (fun _ upto ->
          Nicfs.fsync rt.nicfs ~from ~client:id ~upto_seq:upto);
    }
  in
  (backend, kick)

let add_client t ~id =
  let p = primary t in
  let backend, kick = nicfs_backend p ~params:t.prm ~id in
  let c =
    Libfs.create ~prio:t.dfs_prio ~account:p.dfs_host_cpu ~params:t.prm
      ~node:p.node ~backend ~fs:p.fs ~id ()
  in
  Nicfs.register_client p.nicfs ~id ~log:(Libfs.log c)
    ~on_published:(fun ~upto_seq -> Libfs.reclaim c ~upto_seq)
    ~on_revoke:(fun ~inum -> Libfs.revoke_lease c ~inum);
  t.cls <- { lib = c; kick } :: t.cls;
  c

let clients t = List.rev_map (fun c -> c.lib) t.cls

(* The NICFS service level changed (crash-to-fallback, fail-back).
   The endpoint itself retargets transparently — [start_pipeline]
   always resolves the current plane — but kicks posted to a plane
   that died with the old epoch are gone, so fire a fresh one per
   client: the NICFS re-scans the log from its host-PM cursor and
   chunks whatever the lost kicks covered. *)
let note_service_change t = List.iter (fun c -> c.kick ()) (List.rev t.cls)

let flush_all t =
  List.iter
    (fun c -> Nicfs.flush (primary t).nicfs ~client:(Libfs.id c.lib))
    t.cls

let stop t =
  if t.monitoring then Array.iter (fun rt -> Nicfs.stop_monitor rt.nicfs) t.rts

let replication_wire_bytes t = Nicfs.replicated_wire_bytes (primary t).nicfs

let total_host_dfs_cpu t =
  Array.fold_left
    (fun acc rt -> acc + Stats.Busy.busy_time rt.dfs_host_cpu)
    0 t.rts
