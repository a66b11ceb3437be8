(* Named event counters.

   Bumps made while an engine is running ([Engine.current () = Some _],
   i.e. from simulation processes — the only place the robustness
   counters are incremented) land in that engine's {!Engine.Local}
   table: a plain [int ref] per name, touched only by the domain
   currently executing the engine, so batched runs need no
   synchronization and never share counter state across domains.

   Bumps made outside any engine fall back to a process-global table
   (atomics under a mutex, as before).  Harnesses fold engine-local
   tallies into the global table with {!merge} — in a deterministic
   order of their choosing — and then read totals with {!get}/{!all}. *)

type local = (string, int ref) Hashtbl.t

let local_key : local Engine.Local.key = Engine.Local.key ()

let local_table eng =
  match Engine.Local.get eng local_key with
  | Some h -> h
  | None ->
      let h : local = Hashtbl.create 16 in
      Engine.Local.set eng local_key h;
      h

(* ---- process-global fallback table ---- *)

let mu = Mutex.create ()
let table : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16

let cell name =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt table name with
      | Some r -> r
      | None ->
          let r = Atomic.make 0 in
          Hashtbl.add table name r;
          r)

let global_add name n = ignore (Atomic.fetch_and_add (cell name) n : int)

let add name n =
  match Engine.current () with
  | Some eng -> (
      let h = local_table eng in
      match Hashtbl.find_opt h name with
      | Some r -> r := !r + n
      | None -> Hashtbl.add h name (ref n))
  | None -> global_add name n

let bump name = add name 1

let get_in eng name =
  match Engine.Local.get eng local_key with
  | None -> 0
  | Some h -> ( match Hashtbl.find_opt h name with Some r -> !r | None -> 0)

let all_in eng =
  match Engine.Local.get eng local_key with
  | None -> []
  | Some h ->
      Hashtbl.fold (fun k r acc -> if !r <> 0 then (k, !r) :: acc else acc) h []
      |> List.sort compare

let merge eng =
  match Engine.Local.get eng local_key with
  | None -> ()
  | Some h ->
      Hashtbl.iter (fun k r -> if !r <> 0 then global_add k !r) h;
      Hashtbl.reset h

let get name =
  let local =
    match Engine.current () with Some eng -> get_in eng name | None -> 0
  in
  local
  + Mutex.protect mu (fun () ->
        match Hashtbl.find_opt table name with
        | Some r -> Atomic.get r
        | None -> 0)

let all () =
  let global =
    Mutex.protect mu (fun () ->
        Hashtbl.fold
          (fun k r acc ->
            let v = Atomic.get r in
            if v <> 0 then (k, v) :: acc else acc)
          table [])
  in
  let local =
    match Engine.current () with Some eng -> all_in eng | None -> []
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some r -> r := !r + v
      | None -> Hashtbl.add tbl k (ref v))
    (global @ local);
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [] |> List.sort compare

let reset () =
  (match Engine.current () with
  | Some eng -> (
      match Engine.Local.get eng local_key with
      | Some h -> Hashtbl.reset h
      | None -> ())
  | None -> ());
  Mutex.protect mu (fun () -> Hashtbl.iter (fun _ r -> Atomic.set r 0) table)
