open Sim

type t = { groups : Deployment.t array; group_size : int }

let groups_of ~nodes ~group_size =
  if group_size < 1 then invalid_arg "Rack: group_size must be >= 1";
  if nodes < group_size || nodes mod group_size <> 0 then
    invalid_arg "Rack: nodes must be a positive multiple of group_size";
  nodes / group_size

let create ?params ~nodes ~group_size () =
  let groups =
    Array.init (groups_of ~nodes ~group_size) (fun _ ->
        Deployment.create ?params ~nodes:group_size ())
  in
  { groups; group_size }

(* Groups share no edges, so each can own an engine: the job builds its
   group and then starts [body] as a separate process, which keeps the
   group's t = 0 event order — node processes first, then the workload
   — exactly what it is on a single engine after [create]. *)
let run_batch ?domains ?params ~nodes ~group_size body =
  let groups = groups_of ~nodes ~group_size in
  let job group =
    let eng = Engine.create () in
    let out = ref None in
    Engine.spawn_root ~name:"rack.group" eng (fun () ->
        let d = Deployment.create ?params ~nodes:group_size () in
        Engine.spawn ~name:"rack.body" (fun () ->
            out := Some (body ~groups ~group d)));
    Engine.run eng;
    match !out with
    | Some v -> (v, eng)
    | None -> failwith "Rack.run_batch: a group's body did not finish"
  in
  Array.of_list (Batch.map ?domains job (List.init groups Fun.id))

let group_count t = Array.length t.groups
let group_size t = t.group_size
let node_count t = Array.length t.groups * t.group_size
let group t g = t.groups.(g)

(* Namespace placement: a path is owned by the replica group its parent
   directory hashes to, so one directory's files share a group (and its
   leases and pipelines stay node-local).  FNV-1a: stable across runs
   and OCaml versions, unlike [Hashtbl.hash]. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  !h

let place ~groups path =
  let dir, _ = Dfs_intf.split_path path in
  fnv1a dir mod groups

(* A directory name guaranteed to place on [group]: deterministic
   linear probe over a salted name family.  With G groups the expected
   probe count is G; the sweep uses a handful of directories per run. *)
let owned_dir ~groups ~group ~salt =
  let rec go k =
    let d = Printf.sprintf "/g%d-%d-%d" group salt k in
    if place ~groups (d ^ "/x") = group then d else go (k + 1)
  in
  go 0

(* Path-routing client over one attached Libfs per group.  Fds are
   translated through a table so callers see one fd space; [mkdir]
   broadcasts (every group must be able to resolve ancestors of the
   files it owns); [rename] is supported within one owning group —
   cross-group renames would be a data migration, which the namespace
   does not model, so they fail with [Einval] like a cross-mount rename
   does under POSIX. *)
let router t ~clients =
  if Array.length clients <> group_count t then
    invalid_arg "Rack.router: need exactly one client per group";
  let ops = Array.map Libfs.ops clients in
  let place = place ~groups:(group_count t) in
  let fds : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let next_fd = ref 0 in
  let alloc g fd =
    let rfd = !next_fd in
    incr next_fd;
    Hashtbl.replace fds rfd (g, fd);
    rfd
  in
  let resolve rfd =
    match Hashtbl.find_opt fds rfd with
    | Some gf -> gf
    | None -> Dfs_intf.fail Storage.Fs_state.Einval (string_of_int rfd)
  in
  {
    Dfs_intf.sysname = ops.(0).Dfs_intf.sysname;
    create =
      (fun path ->
        let g = place path in
        alloc g (ops.(g).Dfs_intf.create path));
    open_file =
      (fun path ->
        let g = place path in
        alloc g (ops.(g).Dfs_intf.open_file path));
    close =
      (fun rfd ->
        let g, fd = resolve rfd in
        Hashtbl.remove fds rfd;
        ops.(g).Dfs_intf.close fd);
    write =
      (fun rfd ~pos data ->
        let g, fd = resolve rfd in
        ops.(g).Dfs_intf.write fd ~pos data);
    append =
      (fun rfd data ->
        let g, fd = resolve rfd in
        ops.(g).Dfs_intf.append fd data);
    read =
      (fun rfd ~pos ~len ->
        let g, fd = resolve rfd in
        ops.(g).Dfs_intf.read fd ~pos ~len);
    fsync =
      (fun rfd ->
        let g, fd = resolve rfd in
        ops.(g).Dfs_intf.fsync fd);
    mkdir = (fun path -> Array.iter (fun o -> o.Dfs_intf.mkdir path) ops);
    unlink =
      (fun path ->
        let g = place path in
        ops.(g).Dfs_intf.unlink path);
    rename =
      (fun a b ->
        let ga = place a and gb = place b in
        if ga <> gb then Dfs_intf.fail Storage.Fs_state.Einval b;
        ops.(ga).Dfs_intf.rename a b);
    file_size =
      (fun path ->
        let g = place path in
        ops.(g).Dfs_intf.file_size path);
  }

let replication_wire_bytes t =
  Array.fold_left
    (fun acc d -> acc + Deployment.replication_wire_bytes d)
    0 t.groups

let total_host_dfs_cpu t =
  Array.fold_left
    (fun acc d -> acc + Deployment.total_host_dfs_cpu d)
    0 t.groups
