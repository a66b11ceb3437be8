(* The benchmark's single point of op accounting: a wrapper around a
   [Linefs.Dfs_intf.ops] record that counts ops, errors and bytes and
   records each op's simulated latency, per op type.  It only reads the
   simulated clock, so a wrapped run executes exactly the events an
   unwrapped run does. *)

open Sim
open Linefs

type op =
  | Create
  | Open
  | Close
  | Write
  | Append
  | Read
  | Fsync
  | Mkdir
  | Unlink
  | Rename
  | File_size

let all_ops =
  [ Create; Open; Close; Write; Append; Read; Fsync; Mkdir; Unlink; Rename; File_size ]

let op_name = function
  | Create -> "create"
  | Open -> "open"
  | Close -> "close"
  | Write -> "write"
  | Append -> "append"
  | Read -> "read"
  | Fsync -> "fsync"
  | Mkdir -> "mkdir"
  | Unlink -> "unlink"
  | Rename -> "rename"
  | File_size -> "file_size"

let index = function
  | Create -> 0
  | Open -> 1
  | Close -> 2
  | Write -> 3
  | Append -> 4
  | Read -> 5
  | Fsync -> 6
  | Mkdir -> 7
  | Unlink -> 8
  | Rename -> 9
  | File_size -> 10

type t = {
  mutable active : bool;
  start_on : string option;
  on_start : unit -> unit;
  ok : int array;
  lat : Stats.Series.t array;  (** simulated us, successful ops only *)
  all_lat : Stats.Series.t;  (** successful ops that do work *)
  mutable errors : (op * Storage.Fs_state.error) list;
  mutable bytes_written : int;
  mutable bytes_read : int;
}

let create ?start_on ~on_start () =
  {
    active = false;
    start_on;
    on_start;
    ok = Array.make (List.length all_ops) 0;
    lat = Array.init (List.length all_ops) (fun _ -> Stats.Series.create ());
    all_lat = Stats.Series.create ();
    errors = [];
    bytes_written = 0;
    bytes_read = 0;
  }

(* Begin counting.  [on_start] runs first, so it may snapshot state
   that the counted phase will change. *)
let start t =
  if not t.active then begin
    t.on_start ();
    t.active <- true
  end

let stop t = t.active <- false

(* [close] and [file_size] are LibFS bookkeeping that cost no simulated
   time; they are counted but kept out of the client-op latency
   distribution, whose median would otherwise describe free ops. *)
let timed = function Close | File_size -> false | _ -> true

let measure t op f =
  (match t.start_on with
  | Some prefix when not t.active ->
      if String.starts_with ~prefix (Engine.process_name ()) then start t
  | _ -> ());
  if not t.active then f ()
  else begin
    let t0 = Engine.now () in
    match f () with
    | v ->
        let us = Time.to_us_f (Engine.now () - t0) in
        let i = index op in
        t.ok.(i) <- t.ok.(i) + 1;
        Stats.Series.add t.lat.(i) us;
        if timed op then Stats.Series.add t.all_lat us;
        v
    | exception (Dfs_intf.Fs_error (e, _) as exn) ->
        t.errors <- (op, e) :: t.errors;
        raise exn
  end

let wrap t (o : Dfs_intf.ops) =
  {
    o with
    Dfs_intf.create = (fun p -> measure t Create (fun () -> o.create p));
    open_file = (fun p -> measure t Open (fun () -> o.open_file p));
    close = (fun fd -> measure t Close (fun () -> o.close fd));
    write =
      (fun fd ~pos d ->
        measure t Write (fun () ->
            o.write fd ~pos d;
            if t.active then
              t.bytes_written <- t.bytes_written + Storage.Data.length d));
    append =
      (fun fd d ->
        measure t Append (fun () ->
            o.append fd d;
            if t.active then
              t.bytes_written <- t.bytes_written + Storage.Data.length d));
    read =
      (fun fd ~pos ~len ->
        measure t Read (fun () ->
            let d = o.read fd ~pos ~len in
            if t.active then
              t.bytes_read <- t.bytes_read + Storage.Data.length d;
            d));
    fsync = (fun fd -> measure t Fsync (fun () -> o.fsync fd));
    mkdir = (fun p -> measure t Mkdir (fun () -> o.mkdir p));
    unlink = (fun p -> measure t Unlink (fun () -> o.unlink p));
    rename = (fun a b -> measure t Rename (fun () -> o.rename a b));
    file_size = (fun p -> measure t File_size (fun () -> o.file_size p));
  }

let count t op = t.ok.(index op)
let latency t op = t.lat.(index op)
let ops_ok t = Array.fold_left ( + ) 0 t.ok
let ops_attempted t = ops_ok t + List.length t.errors
let errors t = List.rev t.errors
let bytes_written t = t.bytes_written
let bytes_read t = t.bytes_read

(* The highest nearest-rank percentile of [s] that still leaves at
   least ten samples above it, from a fixed ladder; returns
   (percentile, value). *)
let tail s =
  let n = Stats.Series.count s in
  let ladder = [ 99.99; 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ] in
  let p =
    match
      List.find_opt
        (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0)
        ladder
    with
    | Some p -> p
    | None -> 50.0
  in
  (p, Stats.Series.percentile s p)

let latency_all t = t.all_lat
