open Sim
open Linefs

type group_result = {
  dir : string;
  elapsed : Time.t;
  totals : Cohort.stats;
  deployment : Deployment.t;
}

(* The per-group cohort body: runs as a process on the group's
   engine.  Round-robin over users — one IO each per round, the
   cohort's stand-in for [cohort] interleaved clients.  Each user
   writes a window of its own synthetic stream, so file content is a
   pure function of (group, user, offset). *)
let group_body ~cohort ~group_bytes ~io_bytes ~groups ~group:grp d =
  let per_user = group_bytes / cohort in
  let cli = Deployment.add_client d ~id:(grp + 1) in
  let coh = Cohort.create ~ops:(Libfs.ops cli) ~users:cohort () in
  let uops = Array.init cohort (Cohort.user_ops coh) in
  let dir = Rack.owned_dir ~groups ~group:grp ~salt:0 in
  uops.(0).Dfs_intf.mkdir dir;
  let t0 = Engine.now () in
  let fds =
    Array.init cohort (fun u ->
        uops.(u).Dfs_intf.create (Printf.sprintf "%s/u%d" dir u))
  in
  let streams =
    Array.init cohort (fun u ->
        Storage.Data.synthetic ~seed:((grp * 1009) + u) ~len:per_user)
  in
  for r = 0 to (per_user / io_bytes) - 1 do
    for u = 0 to cohort - 1 do
      uops.(u).Dfs_intf.append fds.(u)
        (Storage.Data.sub streams.(u) ~pos:(r * io_bytes) ~len:io_bytes)
    done
  done;
  Array.iteri
    (fun u fd ->
      uops.(u).Dfs_intf.fsync fd;
      uops.(u).Dfs_intf.close fd)
    fds;
  Deployment.flush_all d;
  {
    dir;
    elapsed = Engine.now () - t0;
    totals = Cohort.totals coh;
    deployment = d;
  }

let run ?domains ?params ~nodes ~group_size ~cohort ~group_bytes ~io_bytes () =
  Rack.run_batch ?domains ?params ~nodes ~group_size
    (group_body ~cohort ~group_bytes ~io_bytes)

let spawn_on ~eng ~rack ~cohort ~group_bytes ~io_bytes () =
  let groups = Rack.group_count rack in
  let out = Array.make groups None in
  for grp = 0 to groups - 1 do
    Engine.spawn_root ~name:"rack.cohort" eng (fun () ->
        out.(grp) <-
          Some
            (group_body ~cohort ~group_bytes ~io_bytes ~groups ~group:grp
               (Rack.group rack grp)))
  done;
  fun () ->
    Array.map
      (function
        | Some r -> r
        | None -> failwith "rack_cohort: a group's cohort did not finish")
      out
