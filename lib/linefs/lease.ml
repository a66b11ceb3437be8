open Sim

type ltype = Read | Write

type lease = {
  mutable writer : int option;
  mutable readers : int list;
  mutable expires : Time.t;
  mutable epoch : int;
}

type event =
  | Granted of {
      node : int;
      client : int;
      inum : int;
      ltype : ltype;
      epoch : int;
      expires : Time.t;
    }
  | Released of { node : int; client : int; inum : int }
  | Expired of { node : int; client : int; inum : int }

(* Engine-local when installed from inside a simulation process (fault
   scenarios batched across domains each observe only their own
   engine's events), with a process-global fallback for installs from
   outside any run. Same discipline as [Net.Inject]. *)
let observer : (event -> unit) option ref = ref None
let local_observer : (event -> unit) Engine.Local.key = Engine.Local.key ()

let set_observer f =
  match Engine.current () with
  | Some eng -> Engine.Local.set eng local_observer f
  | None -> observer := Some f

let clear_observer () =
  (match Engine.current () with
  | Some eng -> Engine.Local.remove eng local_observer
  | None -> ());
  observer := None

let emit ev =
  let f =
    match Engine.current () with
    | Some eng -> (
        match Engine.Local.get eng local_observer with
        | Some _ as f -> f
        | None -> !observer)
    | None -> !observer
  in
  match f with None -> () | Some f -> f ev

type t = {
  params : Params.t;
  node : Hw.Node.t;
  replicate : bytes:int -> unit;
  current_epoch : unit -> int;
  group : Engine.group option;
  table : (int, lease) Hashtbl.t;
  mutable pending : int;
  persisted : Cond.t;
}

let lease_record_bytes = 64

let create ?(current_epoch = fun () -> 0) ?group ~params ~node ~replicate () =
  {
    params;
    node;
    replicate;
    current_epoch;
    group;
    table = Hashtbl.create 64;
    pending = 0;
    persisted = Cond.create ();
  }

(* A lease from a previous cluster epoch is dead no matter its expiry:
   the epoch bump (failure detection) revoked it cluster-wide (§3.6). *)
let valid t l =
  l.epoch = t.current_epoch ()
  && (l.expires > Engine.now () || l.writer <> None || l.readers <> [])

let persist_in_background t =
  t.pending <- t.pending + 1;
  (* The persist runs in [t.group] (the owning NICFS passes its host
     domain), not the granting RPC handler's group: a NIC crash killing
     it mid-persist would leak [pending] and wedge every later
     [wait_persisted] fsync barrier — the grant record lives in host
     PM, which survives NIC resets. *)
  Engine.spawn ?group:t.group ~name:"lease.persist" (fun () ->
      (* Record the grant in host PM and ship it to the replicas. *)
      Hw.Pm.write t.node.Hw.Node.pm lease_record_bytes;
      t.replicate ~bytes:lease_record_bytes;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Cond.broadcast t.persisted)

let acquire t ~client ~inum ltype =
  let l =
    match Hashtbl.find_opt t.table inum with
    | Some l when valid t l -> l
    | _ ->
        let l =
          { writer = None; readers = []; expires = 0; epoch = 0 }
        in
        Hashtbl.replace t.table inum l;
        l
  in
  let grant () =
    l.expires <- Engine.now () + t.params.Params.lease_duration;
    l.epoch <- t.current_epoch ();
    persist_in_background t;
    emit
      (Granted
         {
           node = t.node.Hw.Node.id;
           client;
           inum;
           ltype;
           epoch = l.epoch;
           expires = l.expires;
         });
    `Granted
  in
  match ltype with
  | Write -> (
      match l.writer with
      | Some w when w <> client -> `Conflict
      | _ ->
          if List.exists (fun r -> r <> client) l.readers then `Conflict
          else begin
            l.writer <- Some client;
            l.readers <- List.filter (fun r -> r <> client) l.readers;
            grant ()
          end)
  | Read -> (
      match l.writer with
      | Some w when w <> client -> `Conflict
      | _ ->
          if not (List.mem client l.readers) then
            l.readers <- client :: l.readers;
          grant ())

let release t ~client ~inum =
  match Hashtbl.find_opt t.table inum with
  | None -> ()
  | Some l ->
      let held = l.writer = Some client || List.mem client l.readers in
      if l.writer = Some client then l.writer <- None;
      l.readers <- List.filter (fun r -> r <> client) l.readers;
      if held then emit (Released { node = t.node.Hw.Node.id; client; inum });
      if l.writer = None && l.readers = [] then Hashtbl.remove t.table inum

let iter_holds t ~f =
  Hashtbl.iter
    (fun inum l ->
      (match l.writer with Some w -> f ~inum ~client:w | None -> ());
      List.iter
        (fun r -> if l.writer <> Some r then f ~inum ~client:r)
        l.readers)
    t.table

let holders t ~inum =
  match Hashtbl.find_opt t.table inum with
  | None -> []
  | Some l -> (
      match l.writer with
      | Some w -> w :: List.filter (fun r -> r <> w) l.readers
      | None -> l.readers)

let check_access t ~client ~inum ~write =
  match Hashtbl.find_opt t.table inum with
  | None -> true
  | Some l when l.epoch <> t.current_epoch () ->
      (* Stale-epoch lease: revoked by the epoch bump, no conflict. *)
      true
  | Some l -> (
      match l.writer with
      | Some w when w <> client -> false
      | _ ->
          if write then not (List.exists (fun r -> r <> client) l.readers)
          else true)

let expire_client t ~client =
  let stale = ref [] in
  Hashtbl.iter
    (fun inum l ->
      let held = l.writer = Some client || List.mem client l.readers in
      if l.writer = Some client then l.writer <- None;
      l.readers <- List.filter (fun r -> r <> client) l.readers;
      if held then emit (Expired { node = t.node.Hw.Node.id; client; inum });
      if l.writer = None && l.readers = [] then stale := inum :: !stale)
    t.table;
  List.iter (Hashtbl.remove t.table) !stale

let pending_persists t = t.pending

let wait_persisted t =
  while t.pending > 0 do
    Cond.await t.persisted
  done

let active_leases t = Hashtbl.length t.table
