(* Rope-style payload representation.

   Leaves are [Real] byte slices, [Synth] deterministic pseudo-random
   blocks, and [Zero] holes; [Cat] concatenates leaves in O(1) without
   materializing.  Consumers stream over the structure with
   [iter_slices]/[fold_slices]/[blit_to] — the hot data plane (CRC,
   LZW, digests, replication) never materializes whole payloads. *)

type t =
  | Real of { buf : bytes; pos : int; len : int }
  | Synth of { seed : int; off : int; len : int }
  | Zero of { len : int }
  | Cat of { parts : t array; offs : int array; len : int }
      (* [parts] are nonempty leaves (never [Cat]); [offs.(i)] is the
         logical offset of [parts.(i)]; at least two parts. *)

type slice =
  | Sreal of { buf : bytes; pos : int; len : int }
  | Ssynth of { seed : int; off : int; len : int }
  | Szero of { len : int }

let real buf = Real { buf; pos = 0; len = Bytes.length buf }
let of_string s = real (Bytes.of_string s)
let synthetic ~seed ~len = Synth { seed; off = 0; len }
let zero ~len = Zero { len }
let empty = Real { buf = Bytes.empty; pos = 0; len = 0 }

let length = function
  | Real r -> r.len
  | Synth s -> s.len
  | Zero z -> z.len
  | Cat c -> c.len

(* Deterministic synthetic content: 8-byte words derived from the seed
   and the absolute word index, so slices agree with their parent. *)
let synth_word seed widx =
  let mix z =
    let z =
      Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
    in
    let z =
      Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
    in
    Int64.(logxor z (shift_right_logical z 31))
  in
  mix (Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.of_int widx))

let synth_byte seed p =
  let word = synth_word seed (p / 8) in
  Char.chr (Int64.to_int (Int64.shift_right_logical word (8 * (p mod 8))) land 0xFF)

(* Word-at-a-time synthetic fill: 8x fewer mixes than the per-byte
   path, and the aligned middle is written as whole little-endian
   words (the byte layout [synth_byte] defines). *)
let synth_blit ~seed ~off dst ~pos ~len =
  let p = ref pos and o = ref off and n = ref len in
  while !n > 0 && !o land 7 <> 0 do
    Bytes.unsafe_set dst !p (synth_byte seed !o);
    incr p;
    incr o;
    decr n
  done;
  while !n >= 8 do
    Bytes.set_int64_le dst !p (synth_word seed (!o asr 3));
    p := !p + 8;
    o := !o + 8;
    n := !n - 8
  done;
  while !n > 0 do
    Bytes.unsafe_set dst !p (synth_byte seed !o);
    incr p;
    incr o;
    decr n
  done

(* Index of the part containing logical offset [i] (binary search on
   the cumulative offsets). *)
let part_index offs i =
  let lo = ref 0 and hi = ref (Array.length offs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if offs.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

let get t i =
  if i < 0 || i >= length t then invalid_arg "Data.get: out of bounds";
  match t with
  | Real r -> Bytes.get r.buf (r.pos + i)
  | Synth s -> synth_byte s.seed (s.off + i)
  | Zero _ -> '\000'
  | Cat c ->
      let k = part_index c.offs i in
      let rel = i - c.offs.(k) in
      (match c.parts.(k) with
      | Real r -> Bytes.get r.buf (r.pos + rel)
      | Synth s -> synth_byte s.seed (s.off + rel)
      | Zero _ -> '\000'
      | Cat _ -> assert false)

(* Slice a leaf (no bounds checks; caller guarantees them). *)
let sub_leaf leaf ~pos ~len =
  match leaf with
  | Real r -> Real { buf = r.buf; pos = r.pos + pos; len }
  | Synth s -> Synth { seed = s.seed; off = s.off + pos; len }
  | Zero _ -> Zero { len }
  | Cat _ -> assert false

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Data.sub: out of bounds";
  match t with
  | Real _ | Synth _ | Zero _ -> if len = 0 then empty else sub_leaf t ~pos ~len
  | Cat c ->
      if len = 0 then empty
      else begin
        let first = part_index c.offs pos in
        let last = part_index c.offs (pos + len - 1) in
        if first = last then
          sub_leaf c.parts.(first) ~pos:(pos - c.offs.(first)) ~len
        else begin
          let nparts = last - first + 1 in
          let parts = Array.make nparts empty in
          let offs = Array.make nparts 0 in
          let logical = ref 0 in
          for k = first to last do
            let p = c.parts.(k) in
            let p_start = c.offs.(k) in
            let lo = max pos p_start in
            let hi = min (pos + len) (p_start + length p) in
            let piece = sub_leaf p ~pos:(lo - p_start) ~len:(hi - lo) in
            parts.(k - first) <- piece;
            offs.(k - first) <- !logical;
            logical := !logical + (hi - lo)
          done;
          Cat { parts; offs; len }
        end
      end

let slice_of_leaf = function
  | Real r -> Sreal { buf = r.buf; pos = r.pos; len = r.len }
  | Synth s -> Ssynth { seed = s.seed; off = s.off; len = s.len }
  | Zero z -> Szero { len = z.len }
  | Cat _ -> assert false

(* First-order loops: a fold over a leaf allocates only its slice. *)
let fold_slices t ~init ~f =
  match t with
  | Cat c ->
      let acc = ref init in
      for k = 0 to Array.length c.parts - 1 do
        acc := f !acc (slice_of_leaf c.parts.(k))
      done;
      !acc
  | Real _ | Synth _ | Zero _ ->
      if length t > 0 then f init (slice_of_leaf t) else init

let iter_slices t f =
  match t with
  | Cat c ->
      for k = 0 to Array.length c.parts - 1 do
        f (slice_of_leaf c.parts.(k))
      done
  | Real _ | Synth _ | Zero _ -> if length t > 0 then f (slice_of_leaf t)

let slice_length = function
  | Sreal r -> r.len
  | Ssynth s -> s.len
  | Szero z -> z.len

let blit_slice s ~src_pos ~dst ~dst_pos ~len =
  match s with
  | Sreal r -> Bytes.blit r.buf (r.pos + src_pos) dst dst_pos len
  | Ssynth sy -> synth_blit ~seed:sy.seed ~off:(sy.off + src_pos) dst ~pos:dst_pos ~len
  | Szero _ -> Bytes.fill dst dst_pos len '\000'

let blit_to t ~src_pos ~dst ~dst_pos ~len =
  if src_pos < 0 || len < 0 || src_pos + len > length t then
    invalid_arg "Data.blit_to: out of bounds";
  if dst_pos < 0 || dst_pos + len > Bytes.length dst then
    invalid_arg "Data.blit_to: destination out of bounds";
  match t with
  | Real r -> Bytes.blit r.buf (r.pos + src_pos) dst dst_pos len
  | Synth s -> synth_blit ~seed:s.seed ~off:(s.off + src_pos) dst ~pos:dst_pos ~len
  | Zero _ -> Bytes.fill dst dst_pos len '\000'
  | Cat c ->
      if len > 0 then begin
        let first = part_index c.offs src_pos in
        let last = part_index c.offs (src_pos + len - 1) in
        for k = first to last do
          let p = c.parts.(k) in
          let p_start = c.offs.(k) in
          let lo = max src_pos p_start in
          let hi = min (src_pos + len) (p_start + length p) in
          let plen = hi - lo in
          (match p with
          | Real r -> Bytes.blit r.buf (r.pos + (lo - p_start)) dst (dst_pos + lo - src_pos) plen
          | Synth s ->
              synth_blit ~seed:s.seed ~off:(s.off + (lo - p_start)) dst
                ~pos:(dst_pos + lo - src_pos) ~len:plen
          | Zero _ -> Bytes.fill dst (dst_pos + lo - src_pos) plen '\000'
          | Cat _ -> assert false)
        done
      end

let to_bytes t =
  let n = length t in
  let out = Bytes.create n in
  blit_to t ~src_pos:0 ~dst:out ~dst_pos:0 ~len:n;
  out

(* O(1) concatenation: collect leaves in order (flattening nested
   Cats), coalescing adjacent slices of the same underlying stream so
   common patterns — contiguous synthetic slices, runs of zeros,
   adjacent windows of one buffer — collapse back into single leaves. *)
let concat parts =
  let leaves = ref [] in
  (* [push] prepends, coalescing with the current head. *)
  let push leaf =
    match (!leaves, leaf) with
    | _, (Real { len = 0; _ } | Synth { len = 0; _ } | Zero { len = 0 }) -> ()
    | Synth a :: rest, Synth b when a.seed = b.seed && a.off + a.len = b.off ->
        leaves := Synth { a with len = a.len + b.len } :: rest
    | Zero a :: rest, Zero b -> leaves := Zero { len = a.len + b.len } :: rest
    | Real a :: rest, Real b when a.buf == b.buf && a.pos + a.len = b.pos ->
        leaves := Real { a with len = a.len + b.len } :: rest
    | _, leaf -> leaves := leaf :: !leaves
  in
  List.iter
    (fun p ->
      match p with
      | Real _ | Synth _ | Zero _ -> push p
      | Cat c -> Array.iter push c.parts)
    parts;
  match List.rev !leaves with
  | [] -> empty
  | [ leaf ] -> leaf
  | leaves ->
      let parts = Array.of_list leaves in
      let n = Array.length parts in
      let offs = Array.make n 0 in
      let total = ref 0 in
      for i = 0 to n - 1 do
        offs.(i) <- !total;
        total := !total + length parts.(i)
      done;
      Cat { parts; offs; len = !total }

(* -------------------- content equality -------------------- *)

(* Lockstep walk over the two slice decompositions.  Structurally
   identical spans (same zero run, same synthetic stream at the same
   offset) compare in O(1); mixed spans compare through two small
   reusable windows, so nothing larger than a fixed chunk is ever
   materialized. *)
let window = 512

let equal a b =
  length a = length b
  && (a == b
     ||
     match (a, b) with
     | Zero _, Zero _ -> true
     | Synth x, Synth y when x.seed = y.seed && x.off = y.off -> true
     | _ ->
         let n = length a in
         if n = 0 then true
         else begin
           let la = fold_slices a ~init:[] ~f:(fun acc s -> s :: acc) in
           let lb = fold_slices b ~init:[] ~f:(fun acc s -> s :: acc) in
           let sa = Array.of_list (List.rev la) in
           let sb = Array.of_list (List.rev lb) in
           let wa = Bytes.create window and wb = Bytes.create window in
           let ia = ref 0 and ib = ref 0 in
           (* Offsets consumed within the current slice of each side. *)
           let oa = ref 0 and ob = ref 0 in
           let slice_len = function
             | Sreal r -> r.len
             | Ssynth s -> s.len
             | Szero z -> z.len
           in
           let ok = ref true in
           let remaining = ref n in
           while !ok && !remaining > 0 do
             let ca = sa.(!ia) and cb = sb.(!ib) in
             let avail_a = slice_len ca - !oa and avail_b = slice_len cb - !ob in
             let span = min avail_a avail_b in
             (* Structural fast paths for the overlapping span. *)
             let fast =
               match (ca, cb) with
               | Szero _, Szero _ -> true
               | Ssynth x, Ssynth y ->
                   x.seed = y.seed && x.off + !oa = y.off + !ob
               | Sreal x, Sreal y ->
                   x.buf == y.buf && x.pos + !oa = y.pos + !ob
               | _ -> false
             in
             if not fast then begin
               (* Chunked byte compare through the reusable windows. *)
               let done_ = ref 0 in
               while !ok && !done_ < span do
                 let w = min window (span - !done_) in
                 blit_slice ca ~src_pos:(!oa + !done_) ~dst:wa ~dst_pos:0 ~len:w;
                 blit_slice cb ~src_pos:(!ob + !done_) ~dst:wb ~dst_pos:0 ~len:w;
                 let i = ref 0 in
                 while !i < w do
                   if Bytes.unsafe_get wa !i <> Bytes.unsafe_get wb !i then begin
                     ok := false;
                     i := w
                   end
                   else incr i
                 done;
                 done_ := !done_ + w
               done
             end;
             oa := !oa + span;
             ob := !ob + span;
             remaining := !remaining - span;
             if !oa = slice_len ca then begin
               incr ia;
               oa := 0
             end;
             if !ob = slice_len cb then begin
               incr ib;
               ob := 0
             end
           done;
           !ok
         end)

(* [Cat] counts as "real": like the materialized concatenations it
   replaces, its content is concrete (embedded on the wire, eligible
   for compression), unlike purely descriptor-backed Synth/Zero. *)
let is_real = function Real _ | Cat _ -> true | Synth _ | Zero _ -> false

let leaf_count = function
  | Real _ | Synth _ | Zero _ -> 1
  | Cat c -> Array.length c.parts

let fill_ratio t ~zeros ~rng =
  let n = length t in
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    if Sim.Rng.float rng 1.0 < zeros then Bytes.unsafe_set out i '\000'
    else Bytes.unsafe_set out i (Sim.Rng.byte rng)
  done;
  real out

let pp fmt t =
  match t with
  | Real r -> Format.fprintf fmt "real[%d]" r.len
  | Synth s ->
      Format.fprintf fmt "synth[seed=%d,off=%d,len=%d]" s.seed s.off s.len
  | Zero z -> Format.fprintf fmt "zero[%d]" z.len
  | Cat c -> Format.fprintf fmt "cat[%d parts,%d]" (Array.length c.parts) c.len
