open Sim
open Storage
open Linefs

type variant = Pessimistic | Bg_repl | Hyperloop

let variant_name = function
  | Pessimistic -> "Assise"
  | Bg_repl -> "Assise-BgRepl"
  | Hyperloop -> "Assise+Hyperloop"

(* One replication batch travelling down the chain. *)
type repl_msg = {
  rbytes : int;
  hop : int; (* index of the receiving node *)
  acks : int ref;
  done_ : unit Ivar.t;
}

type node_rt = {
  node : Hw.Node.t;
  fs : Fs_state.t;
  acct : Stats.Busy.t;
  mutable server : (repl_msg, unit) Net.Rpc.t option;
}

(* A client's replication and digestion cursors; its log-structured
   front end is a [Libfs.t] (see [backend]). *)
type cursors = {
  cid : int;
  mutable digested_seq : int;
  mutable replicated_seq : int;
  mutable bg_enqueued_seq : int;
  mutable bg_enqueued_bytes : int;
  mutable logged_bytes : int; (* cumulative bytes ever logged *)
  mutable digested_bytes : int; (* cumulative bytes digested *)
  mutable shipped_bytes : int; (* cumulative bytes replicated *)
  ship_lock : Semaphore.t;
  mutable bg_mark : int; (* logged_bytes already enqueued for bg repl *)
  repl_progress : Cond.t;
  digest_request : Cond.t;
  bg_queue : (int * int * int) Mailbox.t; (* (first_seq, last_seq, bytes) *)
  completed_bg : (int, int) Hashtbl.t; (* first_seq -> last_seq *)
  mutable stopping : bool;
}

type client = { lib : Libfs.t; cur : cursors }

type t = {
  prm : Params.t;
  var : variant;
  rts : node_rt array;
  prio : Hw.Cpu.prio;
  mutable cls : client list;
  (* Hyperloop verb-group pool, replenished by a host thread. *)
  mutable verbs : int;
  verb_cond : Cond.t;
  mutable n_verb_stalls : int;
  mutable replenisher : bool;
  mutable wire : int; (* bytes the primary shipped *)
}

let bg_threads = 3
let verb_group = 256
let verb_low_mark = 1 (* re-post only when exhausted: the paper's 99.9p stall *)
let verb_post_work = Time.us 50

let variant t = t.var
let node t i = t.rts.(i).node
let primary_fs t = t.rts.(0).fs
let dfs_host_cpu t ~node = t.rts.(node).acct
let verb_stalls t = t.n_verb_stalls
let replication_wire_bytes t = t.wire

let total_host_dfs_cpu t =
  Array.fold_left (fun acc rt -> acc + Stats.Busy.busy_time rt.acct) 0 t.rts

let cpu t rt work = Hw.Cpu.run ~prio:t.prio ~account:rt.acct rt.node.Hw.Node.host work

(* Busy-poll while [f] runs: a host core spins (in 100 us slices) until
   the blocking operation completes — how Assise waits for RDMA
   completions. *)
let busy_wait t rt f =
  let finished = ref false in
  Engine.spawn ~name:"assise.poller" (fun () ->
      let tk = Hw.Cpu.task ~prio:t.prio ~account:rt.acct rt.node.Hw.Node.host in
      while not !finished do
        Hw.Cpu.task_run tk (Time.us 100)
      done;
      Hw.Cpu.task_release tk);
  let r = f () in
  finished := true;
  r

(* ------------------------------------------------------------------ *)
(* Chain replication                                                   *)
(* ------------------------------------------------------------------ *)

let server rt =
  match rt.server with Some s -> s | None -> failwith "assise: not started"

(* Forward a batch from node [hop] to node [hop+1]. *)
let forward t ~from_hop msg =
  let src = t.rts.(from_hop) and dst = t.rts.(from_hop + 1) in
  let move () =
    Net.Rdma.move ~dst_medium:`Pm
      ~src:(Net.Loc.Host src.node)
      ~dst:(Net.Loc.Host dst.node)
      msg.rbytes
  in
  (match t.var with
  | Pessimistic | Bg_repl ->
      (* The sender's SharedFS posts the WRITE and polls completion. *)
      busy_wait t src move
  | Hyperloop ->
      (* NIC-driven chained WRITE: no host CPU at either end. *)
      move ());
  if from_hop = 0 then t.wire <- t.wire + msg.rbytes;
  Net.Rpc.post (server dst) ~from:(Net.Loc.Host src.node)
    { msg with hop = from_hop + 1 }

(* Replica SharedFS digestion of a replicated batch into local public
   PM, in the background with host cores (the replica CPU load §2.1
   measures). *)
let replica_digest t ~name rt bytes =
  Engine.spawn ~name (fun () ->
      cpu t rt (Hw.Node.copy_work rt.node bytes);
      Hw.Pm.read rt.node.Hw.Node.pm bytes;
      Hw.Pm.write rt.node.Hw.Node.pm bytes)

(* Replica-side handling of an incoming batch. The data is already
   persistent in this node's PM log (the sender's RDMA WRITE targeted
   PM), so the ack can go out immediately; forwarding continues the
   chain; digestion runs in the background.  Hyperloop replicas are
   passive for replication, but their SharedFS digests all the same. *)
let handle_repl t rt msg =
  if msg.hop + 1 < Array.length t.rts then
    Engine.spawn ~name:"assise.forward" (fun () ->
        forward t ~from_hop:msg.hop msg);
  decr msg.acks;
  if !(msg.acks) <= 0 && not (Ivar.is_filled msg.done_) then
    Ivar.fill msg.done_ ();
  replica_digest t ~name:"assise.replica-digest" rt msg.rbytes

(* Hyperloop verb accounting: consume one pre-posted verb group per
   batch; a host thread replenishes groups and can be starved by CPU
   contention. *)
let rec take_verb t =
  if t.verbs > 0 then t.verbs <- t.verbs - 1
  else begin
    t.n_verb_stalls <- t.n_verb_stalls + 1;
    Cond.await t.verb_cond;
    take_verb t
  end

let start_replenisher t =
  if not t.replenisher then begin
    t.replenisher <- true;
    Engine.spawn ~name:"hyperloop.post" (fun () ->
        while t.replenisher do
          if t.verbs < verb_low_mark then begin
            (* Posting verbs needs host CPU; contention delays it. *)
            cpu t t.rts.(0) verb_post_work;
            t.verbs <- t.verbs + verb_group;
            Cond.broadcast t.verb_cond
          end
          else ignore (Cond.await_timeout t.verb_cond (Time.ms 1) : bool)
        done)
  end

(* Ship [bytes] down the chain and wait for all acks. Runs in the
   caller's process. *)
let replicate_batch t ~bytes =
  let n_replicas = Array.length t.rts - 1 in
  if n_replicas > 0 && bytes > 0 then begin
    match t.var with
    | Pessimistic | Bg_repl ->
        let msg =
          {
            rbytes = bytes;
            hop = 0;
            acks = ref n_replicas;
            done_ = Ivar.create ();
          }
        in
        busy_wait t t.rts.(0) (fun () ->
            forward t ~from_hop:0 msg;
            Ivar.read msg.done_)
    | Hyperloop ->
        (* NIC-chained WAIT/WRITE verbs: no host CPU anywhere on the
           chain. Each hop's WRITE lands directly in the next PM log
           and triggers the pre-posted forward. *)
        take_verb t;
        for hop = 0 to n_replicas - 1 do
          let src = t.rts.(hop) and dst = t.rts.(hop + 1) in
          Net.Rdma.move ~dst_medium:`Pm
            ~src:(Net.Loc.Host src.node)
            ~dst:(Net.Loc.Host dst.node)
            bytes;
          if hop = 0 then t.wire <- t.wire + bytes;
          replica_digest t ~name:"hyperloop.replica-digest" dst bytes
        done;
        (* Hardware ack back to the primary NIC. *)
        Net.Rdma.move
          ~src:(Net.Loc.Host t.rts.(n_replicas).node)
          ~dst:(Net.Loc.Host t.rts.(0).node)
          64;
        (* Completion wake-up: one dispatch on the (primary) host. *)
        cpu t t.rts.(0) (Time.us 5)
  end

(* ------------------------------------------------------------------ *)
(* SharedFS digestion (publication with host cores)                    *)
(* ------------------------------------------------------------------ *)

(* Assise reclaims log entries once they are digested into local
   public PM; replication at fsync ships from the digested state, so
   it does not pin the log. *)
let reclaim lib c =
  if c.digested_seq > 0 then Libfs.reclaim lib ~upto_seq:c.digested_seq

(* Ship replication batches until the cumulative shipped counter
   reaches [target] bytes; serialized per client so the digester and
   fsync paths never double-ship. *)
let ship_bytes t c ~target =
  Semaphore.with_permit c.ship_lock (fun () ->
      while c.shipped_bytes < target do
        let batch =
          min t.prm.Params.chunk_bytes (target - c.shipped_bytes)
        in
        replicate_batch t ~bytes:batch;
        c.shipped_bytes <- c.shipped_bytes + batch
      done)

let digest_batch t lib c ~upto =
  let rt = t.rts.(0) in
  let entries =
    Oplog.Log.entries_from (Libfs.log lib) ~seq:(c.digested_seq + 1)
      ~max_bytes:max_int
  in
  let entries =
    List.filter (fun (e : Oplog.entry) -> e.Oplog.seq <= upto) entries
  in
  match entries with
  | [] -> ()
  | _ ->
      let bytes = List.fold_left (fun n e -> n + Oplog.size e) 0 entries in
      (* Host cores copy log -> public PM and rebuild indexes. *)
      cpu t rt (Hw.Node.copy_work rt.node bytes + List.length entries * Time.ns 300);
      Hw.Pm.read rt.node.Hw.Node.pm bytes;
      Hw.Pm.write rt.node.Hw.Node.pm bytes;
      c.digested_seq <- upto;
      c.digested_bytes <- c.digested_bytes + bytes;
      (* Digested data is safe in public PM: reclaim the log right
         away, then chain-ship the digested range (Bg_repl's dedicated
         threads handle shipping instead). *)
      reclaim lib c;
      (match t.var with
      | Pessimistic | Hyperloop -> ship_bytes t c ~target:c.digested_bytes
      | Bg_repl -> ())

let digest_threshold = 4 (* digest when the log is 1/4 full *)

let start_digester t lib c =
  let lg = Libfs.log lib in
  Engine.spawn ~name:(Printf.sprintf "assise.digest.c%d" c.cid) (fun () ->
      while not c.stopping do
        let used = Oplog.Log.used_bytes lg in
        let undigested = Oplog.Log.last_seq lg > c.digested_seq in
        if undigested && used >= Oplog.Log.capacity lg / digest_threshold
        then digest_batch t lib c ~upto:(Oplog.Log.last_seq lg)
        else
          (* Nothing (new) to digest: park until the next signal. *)
          Cond.await c.digest_request
      done)

(* ------------------------------------------------------------------ *)
(* Background replication (Assise-BgRepl)                              *)
(* ------------------------------------------------------------------ *)

let mark_bg_done c ~first ~last =
  Hashtbl.replace c.completed_bg first last;
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt c.completed_bg (c.replicated_seq + 1) with
    | Some upto ->
        Hashtbl.remove c.completed_bg (c.replicated_seq + 1);
        c.replicated_seq <- upto
    | None -> continue := false
  done;
  Cond.broadcast c.repl_progress

let start_bg_workers t c =
  for i = 1 to bg_threads do
    Engine.spawn ~name:(Printf.sprintf "assise.bg%d.c%d" i c.cid) (fun () ->
        let rec loop () =
          let first, last, bytes = Mailbox.recv c.bg_queue in
          if bytes > 0 then begin
            replicate_batch t ~bytes;
            c.shipped_bytes <- c.shipped_bytes + bytes;
            mark_bg_done c ~first ~last
          end;
          loop ()
        in
        loop ())
  done

let bg_enqueue c ~upto =
  if upto > c.bg_enqueued_seq then begin
    Mailbox.send c.bg_queue
      (c.bg_enqueued_seq + 1, upto, c.logged_bytes - c.bg_mark);
    c.bg_enqueued_seq <- upto;
    c.bg_mark <- c.logged_bytes;
    c.bg_enqueued_bytes <- 0
  end

(* ------------------------------------------------------------------ *)
(* Cluster construction                                                *)
(* ------------------------------------------------------------------ *)

let create ?(cfg = Hw.Config.testbed_25gbe) ?(params = Params.default)
    ?(variant = Pessimistic) ?(dfs_prio = Hw.Cpu.prio_normal) ~nodes () =
  let topo = Hw.Topology.create ~cfg ~nodes () in
  let rts =
    Array.map
      (fun node ->
        {
          node;
          fs = Fs_state.create ();
          acct = Stats.Busy.create ();
          server = None;
        })
      topo.Hw.Topology.nodes
  in
  let t =
    {
      prm = params;
      var = variant;
      rts;
      prio = dfs_prio;
      cls = [];
      verbs = verb_group;
      verb_cond = Cond.create ();
      n_verb_stalls = 0;
      replenisher = false;
      wire = 0;
    }
  in
  Array.iteri
    (fun i rt ->
      if i > 0 then
        rt.server <-
          Some
            (Net.Rpc.create
               ~name:(Printf.sprintf "assise%d.repl" i)
               ~loc:(Net.Loc.Host rt.node)
               ~kind:(Net.Rpc.Event { workers = 4; prio = dfs_prio })
               ~handler:(fun msg -> handle_repl t rt msg)
               ()))
    rts;
  if variant = Hyperloop then start_replenisher t;
  t

(* ------------------------------------------------------------------ *)
(* Clients: LibFS over a host-side backend                             *)
(* ------------------------------------------------------------------ *)

(* Synchronously replicate everything up to [upto] (the fsync path). *)
let ensure_replicated t lib c ~upto =
  match t.var with
  | Pessimistic | Hyperloop ->
      ship_bytes t c ~target:c.logged_bytes;
      c.replicated_seq <- max c.replicated_seq upto;
      reclaim lib c
  | Bg_repl ->
      if c.bg_mark < c.logged_bytes then begin
        Mailbox.send c.bg_queue
          (c.bg_enqueued_seq + 1, upto, c.logged_bytes - c.bg_mark);
        c.bg_enqueued_seq <- max c.bg_enqueued_seq upto;
        c.bg_mark <- c.logged_bytes
      end;
      while c.replicated_seq < upto do
        Cond.await c.repl_progress
      done

(* Assise behind LibFS: no leases, a host-local open check, and a full
   log or a quarter-full one wakes the SharedFS digester. *)
let backend t c =
  {
    Libfs.sysname = variant_name t.var;
    lease = (fun _ _ -> ());
    open_check =
      (fun _ path inum ->
        (* Host-local permission check: much cheaper than LineFS's NIC
           RPC, and the client keeps its core. *)
        let fs = primary_fs t in
        if not (Fs_state.writable fs inum || Fs_state.readable fs inum) then
          Dfs_intf.fail Fs_state.Eacces path);
    log_full = (fun _ -> Cond.signal c.digest_request);
    appended =
      (fun lib size ->
        c.logged_bytes <- c.logged_bytes + size;
        let lg = Libfs.log lib in
        if Oplog.Log.used_bytes lg >= Oplog.Log.capacity lg / digest_threshold
        then Cond.signal c.digest_request;
        (* BgRepl: proactively queue full chunks for replication. *)
        if t.var = Bg_repl then begin
          c.bg_enqueued_bytes <- c.bg_enqueued_bytes + size;
          if c.bg_enqueued_bytes >= t.prm.Params.chunk_bytes then
            bg_enqueue c ~upto:(Libfs.last_seq lib)
        end);
    fsync = (fun lib upto -> ensure_replicated t lib c ~upto);
  }

let add_client t ~id =
  let c =
    {
      cid = id;
      digested_seq = 0;
      replicated_seq = 0;
      bg_enqueued_seq = 0;
      bg_enqueued_bytes = 0;
      logged_bytes = 0;
      digested_bytes = 0;
      shipped_bytes = 0;
      ship_lock = Semaphore.create 1;
      bg_mark = 0;
      repl_progress = Cond.create ();
      digest_request = Cond.create ();
      bg_queue = Mailbox.create ();
      completed_bg = Hashtbl.create 8;
      stopping = false;
    }
  in
  let p = t.rts.(0) in
  let lib =
    Libfs.create ~prio:t.prio ~account:p.acct ~params:t.prm ~node:p.node
      ~backend:(backend t c) ~fs:p.fs ~id ()
  in
  start_digester t lib c;
  if t.var = Bg_repl then start_bg_workers t c;
  let cl = { lib; cur = c } in
  t.cls <- cl :: t.cls;
  cl

let ops c = Libfs.ops c.lib
let client_log c = Libfs.log c.lib

let flush_all t =
  List.iter
    (fun { lib; cur = c } ->
      let upto = Oplog.Log.last_seq (Libfs.log lib) in
      if upto > c.replicated_seq then ensure_replicated t lib c ~upto;
      if upto > c.digested_seq then digest_batch t lib c ~upto)
    t.cls

let stop t =
  t.replenisher <- false;
  List.iter
    (fun { cur = c; _ } ->
      c.stopping <- true;
      Cond.broadcast c.digest_request)
    t.cls
