open Storage

(* Treat a truncate as covering everything beyond its size. *)
let infinity_len = 1 lsl 40

let run entries =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  (* Pass 1: inodes created and then unlinked inside this chunk are
     temporarily durable — nothing about them needs publishing. *)
  let born = Hashtbl.create 8 in
  let cancelled = Hashtbl.create 8 in
  Array.iter
    (fun (e : Oplog.entry) ->
      match e.op with
      | Oplog.Create { inum; _ } -> Hashtbl.replace born inum ()
      | Oplog.Unlink { inum; _ } when Hashtbl.mem born inum ->
          Hashtbl.replace cancelled inum ()
      | _ -> ())
    arr;
  let entry_cancelled (e : Oplog.entry) =
    List.exists (Hashtbl.mem cancelled) (Oplog.touches e.op)
  in
  (* Pass 2: walk backwards accumulating per-inode overwrite coverage;
     a write fully shadowed by later writes/truncates is dropped.
     Coverage is kept mirrored: bytes [\[pos, pos + len)] under the key
     range starting at [mirror ~pos ~len].  The walk runs backwards, so
     a sequential writer's chunk then inserts at the end of its map,
     where an insert moves nothing, rather than at the front, where it
     would move every segment. *)
  let mirror ~pos ~len = -(pos + len) in
  let keep = Array.make n true in
  let coverage : (int, unit Extent_map.t) Hashtbl.t = Hashtbl.create 8 in
  let cov_of inum =
    match Hashtbl.find_opt coverage inum with
    | Some m -> m
    | None ->
        let m = Extent_map.create () in
        Hashtbl.add coverage inum m;
        m
  in
  for i = n - 1 downto 0 do
    let e = arr.(i) in
    if entry_cancelled e then keep.(i) <- false
    else
      match e.Oplog.op with
      | Oplog.Write { inum; offset; data } ->
          let len = Data.length data in
          let cov = cov_of inum in
          (* A positive-length range reads as at least one piece. *)
          let at = mirror ~pos:offset ~len in
          let fully_covered =
            len > 0
            && List.for_all
                 (function `Data _ -> true | `Hole _ -> false)
                 (Extent_map.read_range cov ~pos:at ~len)
          in
          if fully_covered then keep.(i) <- false
          else Extent_map.insert cov ~at (Data.zero ~len) ()
      | Oplog.Truncate { inum; size } ->
          Extent_map.insert (cov_of inum)
            ~at:(mirror ~pos:size ~len:infinity_len)
            (Data.zero ~len:infinity_len) ()
      | Oplog.Create _ | Oplog.Unlink _ | Oplog.Rename _ -> ()
  done;
  let survivors = ref [] in
  let removed = ref 0 in
  for i = n - 1 downto 0 do
    if keep.(i) then survivors := arr.(i) :: !survivors else incr removed
  done;
  (!survivors, !removed)
