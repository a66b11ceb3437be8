(** Common DFS client interface.

    Every file system in this repository (LineFS and all baselines)
    exposes its POSIX-ish client API as a value of type {!ops}, so
    workloads (microbenchmarks, LevelDB, Filebench, Tencent Sort) are
    written once and run unchanged against any system.

    All functions must be called from simulation-process context; they
    block for the modelled duration of the operation.  [fd]s are small
    integers scoped to one client. *)

type fd = int

type ops = {
  sysname : string;  (** For reports: "LineFS", "Assise", ... *)
  create : string -> fd;  (** Create-and-open a file (absolute path). *)
  open_file : string -> fd;  (** Open existing (permission-checked). *)
  close : fd -> unit;
  write : fd -> pos:int -> Storage.Data.t -> unit;
  append : fd -> Storage.Data.t -> unit;
  read : fd -> pos:int -> len:int -> Storage.Data.t;
  fsync : fd -> unit;  (** Durable + replicated on return (§3.3.2). *)
  mkdir : string -> unit;
  unlink : string -> unit;
  rename : string -> string -> unit;
  file_size : string -> int option;  (** [None] if absent. *)
}

exception Fs_error of Storage.Fs_state.error * string
(** Raised by operations on failure, carrying the errno-style code and
    the offending path. *)

let fail err path = raise (Fs_error (err, path))

let () =
  Printexc.register_printer (function
    | Fs_error (e, path) ->
        Some
          (Printf.sprintf "Fs_error(%s, %S)"
             (Storage.Fs_state.error_to_string e)
             path)
    | _ -> None)

(** Split an absolute path into (parent directory path, basename). *)
let split_path path =
  if String.length path = 0 || path.[0] <> '/' then
    fail Storage.Fs_state.Einval path;
  match String.rindex_opt path '/' with
  | None | Some 0 -> ("/", String.sub path 1 (String.length path - 1))
  | Some i ->
      ( String.sub path 0 i,
        String.sub path (i + 1) (String.length path - i - 1) )

(** Resolve [path] against [fs], raising {!Fs_error} on failure. *)
let resolve_exn fs path =
  match Storage.Fs_state.resolve fs path with
  | Ok i -> i
  | Error e -> fail e path

(** An open file as a client library sees it. *)
type file = { fpath : string; inum : int; mutable append_pos : int }

(** A client's open-file table: fds are handed out from 3 upward. *)
type fd_table = { files : (fd, file) Hashtbl.t; mutable next_fd : fd }

let fd_table () = { files = Hashtbl.create 16; next_fd = 3 }

let alloc_fd t file =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Hashtbl.replace t.files fd file;
  fd

(** The file behind [fd]; unknown fds are [Einval] in every backend. *)
let the_file t fd =
  match Hashtbl.find_opt t.files fd with
  | Some f -> f
  | None -> fail Storage.Fs_state.Einval (Printf.sprintf "fd %d" fd)

let close_fd t fd = Hashtbl.remove t.files fd
