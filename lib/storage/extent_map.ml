module Imap = Map.Make (Int)

type 'a segment = { start : int; data : Data.t; tag : 'a }
type 'a t = { mutable segs : 'a segment Imap.t; mutable bytes : int }

let create () = { segs = Imap.empty; bytes = 0 }
let is_empty t = Imap.is_empty t.segs
let cardinal t = Imap.cardinal t.segs

let depth t =
  let n = cardinal t in
  let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n / 2) in
  log2 0 n

let seg_end s = s.start + Data.length s.data

let add_seg t s =
  if Data.length s.data > 0 then begin
    t.segs <- Imap.add s.start s t.segs;
    t.bytes <- t.bytes + Data.length s.data
  end

let del_seg t s =
  t.segs <- Imap.remove s.start t.segs;
  t.bytes <- t.bytes - Data.length s.data

(* All segments intersecting [pos, pos+len). *)
let overlapping t ~pos ~len =
  if len <= 0 then []
  else begin
    let hi = pos + len in
    (* Start from the segment at or before [pos] (it may straddle), then
       walk forward while starts are below [hi]. *)
    let first =
      match Imap.find_last_opt (fun k -> k <= pos) t.segs with
      | Some (_, s) when seg_end s > pos -> Some s.start
      | _ -> (
          match Imap.find_first_opt (fun k -> k > pos) t.segs with
          | Some (k, _) when k < hi -> Some k
          | _ -> None)
    in
    let rec walk acc key =
      match Imap.find_first_opt (fun k -> k >= key) t.segs with
      | Some (k, s) when k < hi -> walk (s :: acc) (k + 1)
      | _ -> List.rev acc
    in
    match first with None -> [] | Some k -> walk [] k
  end

(* Remove [pos, pos+len) from the map, trimming straddling segments. *)
let carve t ~pos ~len =
  let hi = pos + len in
  List.iter
    (fun s ->
      del_seg t s;
      (* Keep the non-overlapped left part. *)
      if s.start < pos then
        add_seg t
          {
            s with
            data = Data.sub s.data ~pos:0 ~len:(pos - s.start);
          };
      (* Keep the non-overlapped right part. *)
      if seg_end s > hi then
        add_seg t
          {
            start = hi;
            data = Data.sub s.data ~pos:(hi - s.start) ~len:(seg_end s - hi);
            tag = s.tag;
          })
    (overlapping t ~pos ~len)

let insert t ~at data tag =
  let len = Data.length data in
  if len > 0 then begin
    carve t ~pos:at ~len;
    add_seg t { start = at; data; tag }
  end

let find t off =
  match Imap.find_last_opt (fun k -> k <= off) t.segs with
  | Some (_, s) when seg_end s > off -> Some s
  | _ -> None

let read_range t ~pos ~len =
  if len <= 0 then []
  else begin
    let hi = pos + len in
    let pieces = ref [] in
    let cursor = ref pos in
    List.iter
      (fun s ->
        if s.start > !cursor then
          pieces := `Hole (s.start - !cursor) :: !pieces;
        let from = max s.start !cursor in
        let upto = min (seg_end s) hi in
        pieces :=
          `Data (Data.sub s.data ~pos:(from - s.start) ~len:(upto - from))
          :: !pieces;
        cursor := upto)
      (overlapping t ~pos ~len);
    if !cursor < hi then pieces := `Hole (hi - !cursor) :: !pieces;
    List.rev !pieces
  end

let remove_range t ~pos ~len = carve t ~pos ~len

let remove_if t pred =
  t.segs <-
    Imap.filter
      (fun _ s ->
        let drop = pred s.tag in
        if drop then t.bytes <- t.bytes - Data.length s.data;
        not drop)
      t.segs

(* Is any byte of [pos, pos+len) mapped?  The last segment starting
   below [pos+len] is the only candidate: segments never overlap, so
   every earlier one ends before it starts. *)
let intersects t ~pos ~len =
  len > 0
  &&
  let hi = pos + len in
  match Imap.find_last_opt (fun k -> k < hi) t.segs with
  | Some (_, s) -> seg_end s > pos
  | None -> false

let iter t f = Imap.iter (fun _ s -> f s) t.segs
let fold t ~init ~f = Imap.fold (fun _ s acc -> f acc s) t.segs init

let end_offset t =
  match Imap.max_binding_opt t.segs with
  | None -> 0
  | Some (_, s) -> seg_end s

let mapped_bytes t = t.bytes

let clear t =
  t.segs <- Imap.empty;
  t.bytes <- 0
