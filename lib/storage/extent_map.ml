(* One sorted, growable array of non-overlapping segments.  Lookups are
   binary searches; [insert] and [remove_range] replace the run of
   overlapped segments with at most three (left remnant, new, right
   remnant) by a single blit of the tail.  An append at the end moves
   nothing.

   Slots at and past [n] hold no dropped payload: they are cleared to a
   live segment (or the array is dropped when the map empties), so the
   GC can reclaim what the map no longer references. *)

type 'a segment = { start : int; data : Data.t; tag : 'a }

type 'a t = {
  mutable segs : 'a segment array;
  mutable n : int;
  mutable bytes : int;
}

let create () = { segs = [||]; n = 0; bytes = 0 }
let is_empty t = t.n = 0
let cardinal t = t.n

let depth t =
  let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n / 2) in
  log2 0 t.n

let seg_end s = s.start + Data.length s.data

(* Index of the first segment starting after [x], searching from
   [from]: the search reads only starts. *)
let first_starting_after t ~from x =
  let lo = ref from and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (Array.unsafe_get t.segs mid).start > x then hi := mid
    else lo := mid + 1
  done;
  !lo

(* Index of the first segment ending after [pos] ([t.n] if none): the
   first that can hold a byte at or beyond [pos].  Only the last
   segment starting at or before [pos] can straddle it, since segments
   never overlap. *)
let first_ending_after t pos =
  let j = first_starting_after t ~from:0 pos in
  if j > 0 && seg_end t.segs.(j - 1) > pos then j - 1 else j

(* Clear the vacated slots [t.n, upto) so the array retains nothing
   dead. *)
let clear_vacated t upto =
  if t.n = 0 then t.segs <- [||]
  else Array.fill t.segs t.n (upto - t.n) t.segs.(0)

(* Replace the run [i, j) with the [k] segments [a], [b], [c] (the
   first [k] of them are meaningful): one blit of the tail. *)
let splice t i j k a b c =
  let n = t.n in
  let n' = n - (j - i) + k in
  if n' > Array.length t.segs then begin
    let grown = Array.make (max 8 (2 * Array.length t.segs)) a in
    Array.blit t.segs 0 grown 0 i;
    Array.blit t.segs j grown (i + k) (n - j);
    t.segs <- grown
  end
  else if j <> i + k then Array.blit t.segs j t.segs (i + k) (n - j);
  if k > 0 then t.segs.(i) <- a;
  if k > 1 then t.segs.(i + 1) <- b;
  if k > 2 then t.segs.(i + 2) <- c;
  t.n <- n';
  if n' < n then clear_vacated t n

let opt_length = function Some s -> Data.length s.data | None -> 0

(* Unmap [pos, pos+len) and, when given, map [seg] over it. *)
let replace t ~pos ~len seg =
  let hi = pos + len in
  let i = first_ending_after t pos in
  let j = first_starting_after t ~from:i (hi - 1) in
  for x = i to j - 1 do
    t.bytes <- t.bytes - Data.length t.segs.(x).data
  done;
  (* Remnants of the segments straddling either boundary. *)
  let left =
    if i < j && t.segs.(i).start < pos then begin
      let s = t.segs.(i) in
      Some { s with data = Data.sub s.data ~pos:0 ~len:(pos - s.start) }
    end
    else None
  in
  let right =
    if i < j && seg_end t.segs.(j - 1) > hi then begin
      let s = t.segs.(j - 1) in
      Some
        {
          start = hi;
          data = Data.sub s.data ~pos:(hi - s.start) ~len:(seg_end s - hi);
          tag = s.tag;
        }
    end
    else None
  in
  t.bytes <- t.bytes + opt_length left + opt_length seg + opt_length right;
  match (left, seg, right) with
  | None, None, None ->
      if i < j then splice t i j 0 t.segs.(0) t.segs.(0) t.segs.(0)
  | Some a, None, None | None, Some a, None | None, None, Some a ->
      splice t i j 1 a a a
  | Some a, Some b, None | Some a, None, Some b | None, Some a, Some b ->
      splice t i j 2 a b b
  | Some a, Some b, Some c -> splice t i j 3 a b c

let insert t ~at data tag =
  let len = Data.length data in
  if len > 0 then replace t ~pos:at ~len (Some { start = at; data; tag })

let remove_range t ~pos ~len = if len > 0 then replace t ~pos ~len None

let find t off =
  let i = first_ending_after t off in
  if i < t.n && t.segs.(i).start <= off then Some t.segs.(i) else None

let read_range t ~pos ~len =
  if len <= 0 then []
  else begin
    let hi = pos + len in
    let pieces = ref [] in
    let cursor = ref pos in
    let i = ref (first_ending_after t pos) in
    while !i < t.n && t.segs.(!i).start < hi do
      let s = t.segs.(!i) in
      if s.start > !cursor then
        pieces := `Hole (s.start - !cursor) :: !pieces;
      let from = max s.start !cursor in
      let upto = min (seg_end s) hi in
      pieces :=
        `Data (Data.sub s.data ~pos:(from - s.start) ~len:(upto - from))
        :: !pieces;
      cursor := upto;
      incr i
    done;
    if !cursor < hi then pieces := `Hole (hi - !cursor) :: !pieces;
    List.rev !pieces
  end

let remove_if t pred =
  let kept = ref 0 in
  for x = 0 to t.n - 1 do
    let s = t.segs.(x) in
    if pred s.tag then t.bytes <- t.bytes - Data.length s.data
    else begin
      t.segs.(!kept) <- s;
      incr kept
    end
  done;
  let n = t.n in
  if !kept < n then begin
    t.n <- !kept;
    clear_vacated t n
  end

let intersects t ~pos ~len =
  len > 0
  &&
  let i = first_ending_after t pos in
  i < t.n && t.segs.(i).start < pos + len

let iter t f =
  for x = 0 to t.n - 1 do
    f t.segs.(x)
  done

let fold t ~init ~f =
  let acc = ref init in
  for x = 0 to t.n - 1 do
    acc := f !acc t.segs.(x)
  done;
  !acc

let end_offset t = if t.n = 0 then 0 else seg_end t.segs.(t.n - 1)
let mapped_bytes t = t.bytes

let clear t =
  t.segs <- [||];
  t.n <- 0;
  t.bytes <- 0
