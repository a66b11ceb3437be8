type op =
  | Create of { parent : int; name : string; inum : int; dir : bool }
  | Unlink of { parent : int; name : string; inum : int }
  | Rename of {
      src_parent : int;
      src_name : string;
      dst_parent : int;
      dst_name : string;
      inum : int;
    }
  | Write of { inum : int; offset : int; data : Data.t }
  | Truncate of { inum : int; size : int }

type entry = { seq : int; client : int; op : op; crc : int32 }

let header_size = 32

let payload_size = function
  | Write { data; _ } -> Data.length data
  | Create _ | Unlink _ | Rename _ | Truncate _ -> 0

let op_meta_size = function
  | Create { name; _ } | Unlink { name; _ } -> 24 + String.length name
  | Rename { src_name; dst_name; _ } ->
      32 + String.length src_name + String.length dst_name
  | Write _ -> 24
  | Truncate _ -> 16

let size e = header_size + op_meta_size e.op + payload_size e.op

let is_metadata = function
  | Create _ | Unlink _ | Rename _ | Truncate _ -> true
  | Write _ -> false

let touches = function
  | Create { parent; inum; _ } | Unlink { parent; inum; _ } -> [ parent; inum ]
  | Rename { src_parent; dst_parent; inum; _ } ->
      if src_parent = dst_parent then [ src_parent; inum ]
      else [ src_parent; dst_parent; inum ]
  | Write { inum; _ } | Truncate { inum; _ } -> [ inum ]

(* -------------------- binary encoding -------------------- *)

let magic = 0x4C46 (* "LF" *)

let kind_code = function
  | Create _ -> 1
  | Unlink _ -> 2
  | Rename _ -> 3
  | Write _ -> 4
  | Truncate _ -> 5

(* The entry byte layout, written once against an abstract sink and
   instantiated twice: over a [Buffer.t] for [serialize], and over the
   CRC register itself for the checksum, so the two can never drift.
   Each field returns the sink's next state; the CRC state is a native
   int, so checksumming an entry allocates nothing but the payload's
   slice walk. *)
module type SINK = sig
  type t

  val le : t -> int -> bytes:int -> t
  (** The low [bytes] bytes of an integer, least significant first. *)

  val string : t -> string -> t
  val data : t -> Data.t -> t
end

module Encoder (S : SINK) = struct
  let u8 s v = S.le s v ~bytes:1
  let u16 s v = S.le s v ~bytes:2
  let u32 s v = S.le s v ~bytes:4
  let u64 s v = S.le s v ~bytes:8
  let str s x = S.string (u32 s (String.length x)) x

  let op s = function
    | Create { parent; name; inum; dir } ->
        u8 (u64 (str (u64 s parent) name) inum) (if dir then 1 else 0)
    | Unlink { parent; name; inum } -> u64 (str (u64 s parent) name) inum
    | Rename { src_parent; src_name; dst_parent; dst_name; inum } ->
        let s = str (u64 s src_parent) src_name in
        u64 (str (u64 s dst_parent) dst_name) inum
    | Write { inum; offset; data } ->
        let s = u64 (u64 s inum) offset in
        let len = Data.length data in
        (* Real payloads embed bytes; synthetic ones their descriptor:
           the length and the first 16 content bytes, cheap and still
           enough to pin the content for the checksum. *)
        if Data.is_real data then S.data (u32 (u8 s 0) len) data
        else S.data (u32 (u8 s 1) len) (Data.sub data ~pos:0 ~len:(min 16 len))
    | Truncate { inum; size } -> u64 (u64 s inum) size

  (* The entry without its crc trailer: what the crc covers. *)
  let body s ~seq ~client o =
    let s = u8 (u8 (u16 s magic) (kind_code o)) 0 in
    op (u32 (u64 s seq) client) o

  let framed s e =
    u32 (body s ~seq:e.seq ~client:e.client e.op) (Int32.to_int e.crc)
end

module Crc_encoder = Encoder (struct
  type t = int

  let le = Crc32.fold_le
  let string = Crc32.fold_string
  let data = Crc32.fold_data
end)

module Buffer_encoder = Encoder (struct
  type t = Buffer.t

  let le b v ~bytes =
    for k = 0 to bytes - 1 do
      Buffer.add_uint8 b ((v asr (8 * k)) land 0xFF)
    done;
    b

  let string b x =
    Buffer.add_string b x;
    b

  let data b d =
    Buffer.add_bytes b (Data.to_bytes d);
    b
end)

let make ~seq ~client op =
  { seq; client; op; crc = Crc32.to_int32 (Crc_encoder.body 0 ~seq ~client op) }

let check e =
  Crc32.of_int32 e.crc = Crc_encoder.body 0 ~seq:e.seq ~client:e.client e.op

let frame_crc acc e =
  Crc32.to_int32 (Crc_encoder.framed (Crc32.of_int32 acc) e)

let serialize e =
  Buffer.to_bytes (Buffer_encoder.framed (Buffer.create (size e + 16)) e)

module Dec = struct
  type t = { buf : Bytes.t; mutable pos : int }

  exception Truncated

  let need t n = if t.pos + n > Bytes.length t.buf then raise Truncated

  let u8 t =
    need t 1;
    let v = Bytes.get_uint8 t.buf t.pos in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_le t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (Bytes.get_int32_le t.buf t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let i32 t =
    need t 4;
    let v = Bytes.get_int32_le t.buf t.pos in
    t.pos <- t.pos + 4;
    v

  let u64 t =
    need t 8;
    let v = Int64.to_int (Bytes.get_int64_le t.buf t.pos) in
    t.pos <- t.pos + 8;
    v

  let str t =
    let n = u32 t in
    need t n;
    let s = Bytes.sub_string t.buf t.pos n in
    t.pos <- t.pos + n;
    s

  let raw t n =
    need t n;
    let b = Bytes.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    b
end

let deserialize buf =
  let d = Dec.{ buf; pos = 0 } in
  match
    let m = Dec.u16 d in
    if m <> magic then Error "bad magic"
    else begin
      let kind = Dec.u8 d in
      let _flags = Dec.u8 d in
      let seq = Dec.u64 d in
      let client = Dec.u32 d in
      let verifiable = ref true in
      let op =
        match kind with
        | 1 ->
            let parent = Dec.u64 d in
            let name = Dec.str d in
            let inum = Dec.u64 d in
            let dir = Dec.u8 d = 1 in
            Create { parent; name; inum; dir }
        | 2 ->
            let parent = Dec.u64 d in
            let name = Dec.str d in
            let inum = Dec.u64 d in
            Unlink { parent; name; inum }
        | 3 ->
            let src_parent = Dec.u64 d in
            let src_name = Dec.str d in
            let dst_parent = Dec.u64 d in
            let dst_name = Dec.str d in
            let inum = Dec.u64 d in
            Rename { src_parent; src_name; dst_parent; dst_name; inum }
        | 4 -> (
            let inum = Dec.u64 d in
            let offset = Dec.u64 d in
            let form = Dec.u8 d in
            let len = Dec.u32 d in
            match form with
            | 0 -> Write { inum; offset; data = Data.real (Dec.raw d len) }
            | _ ->
                (* Synthetic payloads are not reconstructible from the
                   wire sample; represent them as zeroed real data of
                   the right length. The checksum cannot be re-verified
                   in this case. *)
                verifiable := false;
                let _sample = Dec.raw d (min 16 len) in
                Write { inum; offset; data = Data.real (Bytes.create len) }
          )
        | 5 ->
            let inum = Dec.u64 d in
            let size = Dec.u64 d in
            Truncate { inum; size }
        | k -> failwith (Printf.sprintf "bad op kind %d" k)
      in
      let crc = Dec.i32 d in
      Ok ({ seq; client; op; crc }, !verifiable)
    end
  with
  | Ok (e, verifiable) ->
      if verifiable && not (check e) then Error "checksum mismatch" else Ok e
  | Error _ as err -> err
  | exception Dec.Truncated -> Error "truncated"
  | exception Failure msg -> Error msg

let pp_op fmt = function
  | Create { parent; name; inum; dir } ->
      Format.fprintf fmt "create(%s parent=%d name=%s inum=%d)"
        (if dir then "dir" else "file")
        parent name inum
  | Unlink { parent; name; inum } ->
      Format.fprintf fmt "unlink(parent=%d name=%s inum=%d)" parent name inum
  | Rename { src_parent; src_name; dst_parent; dst_name; inum } ->
      Format.fprintf fmt "rename(%d/%s -> %d/%s inum=%d)" src_parent src_name
        dst_parent dst_name inum
  | Write { inum; offset; data } ->
      Format.fprintf fmt "write(inum=%d off=%d len=%d)" inum offset
        (Data.length data)
  | Truncate { inum; size } ->
      Format.fprintf fmt "truncate(inum=%d size=%d)" inum size

let pp fmt e =
  Format.fprintf fmt "#%d@%d %a" e.seq e.client pp_op e.op

(* -------------------- the log container -------------------- *)

module Log = struct
  type t = {
    cap : int;
    mutable used : int;
    entries : entry Queue.t;
    mutable head : int;  (* seq of oldest retained *)
    mutable last : int;  (* seq of newest appended, 0 if none ever *)
  }

  let create ~capacity () =
    assert (capacity > 0);
    { cap = capacity; used = 0; entries = Queue.create (); head = 1; last = 0 }

  let capacity t = t.cap
  let used_bytes t = t.used
  let free_bytes t = t.cap - t.used
  let head_seq t = t.head
  let last_seq t = t.last

  let append t e =
    if e.seq <> t.last + 1 then
      invalid_arg
        (Printf.sprintf "Oplog.Log.append: seq %d, expected %d" e.seq
           (t.last + 1));
    let sz = size e in
    if t.used + sz > t.cap then Error `Full
    else begin
      Queue.add e t.entries;
      t.used <- t.used + sz;
      t.last <- e.seq;
      Ok ()
    end

  let entries_from t ~seq ~max_bytes =
    let out = ref [] in
    let bytes = ref 0 in
    (try
       Queue.iter
         (fun e ->
           if e.seq >= seq then begin
             let sz = size e in
             if !bytes > 0 && !bytes + sz > max_bytes then raise Exit;
             out := e :: !out;
             bytes := !bytes + sz
           end)
         t.entries
     with Exit -> ());
    List.rev !out

  let find t ~seq =
    if seq < t.head || seq > t.last then None
    else
      Queue.fold
        (fun acc e -> match acc with Some _ -> acc | None -> if e.seq = seq then Some e else None)
        None t.entries

  let reclaim_upto t ~seq =
    let freed = ref 0 in
    let continue = ref true in
    while !continue do
      match Queue.peek_opt t.entries with
      | Some e when e.seq <= seq ->
          ignore (Queue.pop t.entries);
          freed := !freed + size e;
          t.head <- e.seq + 1
      | _ -> continue := false
    done;
    t.used <- t.used - !freed;
    !freed

  let iter t f = Queue.iter f t.entries

  let rebuild t entries =
    Queue.clear t.entries;
    t.used <- 0;
    List.iter
      (fun e ->
        Queue.add e t.entries;
        t.used <- t.used + size e)
      entries;
    t.head <-
      (match Queue.peek_opt t.entries with
      | Some e -> e.seq
      | None -> t.last + 1)

  let tear_tail t =
    (* Simulate a torn PM write of the newest record: the persisted
       copy no longer matches its per-record CRC. *)
    match Queue.fold (fun _ e -> Some e) None t.entries with
    | None -> false
    | Some last ->
        let torn = { last with crc = Int32.logxor last.crc 0x5A5A5A5Al } in
        let all =
          List.rev
            (Queue.fold
               (fun acc e -> (if e.seq = last.seq then torn else e) :: acc)
               [] t.entries)
        in
        rebuild t all;
        true

  type scrub_result = { torn_truncated : int; quarantined : entry list }

  let scrub t =
    (* Per-record CRC scan.  An invalid suffix is a torn tail — those
       records never fully persisted, so they are truncated and the log
       rolls back ([last_seq] shrinks; the writer re-appends).  An
       invalid record with valid successors is bit-rot: it is
       quarantined (removed, leaving a gap) and the caller must
       {!restore} a pristine copy fetched from the next chain replica
       before replaying the log. *)
    let all = List.rev (Queue.fold (fun acc e -> e :: acc) [] t.entries) in
    let rec split_tail rev torn =
      match rev with
      | e :: rest when not (check e) -> split_tail rest (e :: torn)
      | _ -> (List.rev rev, torn)
    in
    let body, torn = split_tail (List.rev all) [] in
    let quarantined = List.filter (fun e -> not (check e)) body in
    let good = List.filter check body in
    (match torn with e :: _ -> t.last <- e.seq - 1 | [] -> ());
    rebuild t good;
    { torn_truncated = List.length torn; quarantined }

  let restore t e =
    (* Re-insert a quarantined record's pristine replacement (fetched
       from a chain replica) at its sequence position. *)
    if not (check e) then false
    else if e.seq > t.last then false
    else if
      Queue.fold (fun found x -> found || x.seq = e.seq) false t.entries
    then false
    else begin
      let out = ref [] in
      let inserted = ref false in
      Queue.iter
        (fun x ->
          if (not !inserted) && x.seq > e.seq then begin
            out := e :: !out;
            inserted := true
          end;
          out := x :: !out)
        t.entries;
      if not !inserted then out := e :: !out;
      let all = List.rev !out in
      rebuild t all;
      true
    end

  let remove_if t pred =
    let keep = Queue.create () in
    let removed = ref 0 in
    let freed = ref 0 in
    Queue.iter
      (fun e ->
        if pred e then begin
          incr removed;
          freed := !freed + size e
        end
        else Queue.add e keep)
      t.entries;
    Queue.clear t.entries;
    Queue.transfer keep t.entries;
    t.used <- t.used - !freed;
    (t.head <-
       (match Queue.peek_opt t.entries with
       | Some e -> e.seq
       | None -> t.last + 1));
    !removed
end
