(* CRC-32 (IEEE 802.3, reflected 0xEDB88320).

   The register is carried as a native [int] internally — the public
   [int32] interface survives at the edges only — because Int32
   arithmetic boxes every intermediate in OCaml and the byte loop is
   the single hottest real-CPU kernel of the simulator (validation,
   oplog checksums, digests).

   Bulk input runs through slicing-by-8: eight derived tables fold a
   whole 8-byte word into the register per iteration instead of one
   byte, for both real buffers and synthetic generator words.

   Beyond that there are two streaming fast paths used by
   [update_data]:
   - zero runs advance the register in O(log n) via the GF(2) matrix
     operator for appending zero bytes (the classic [crc32_combine]
     machinery);
   - synthetic payloads feed the register straight from the 8-byte
     generator words, never materializing buffers. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

(* Slicing-by-8 tables: [ts.(k).(b)] is the register contribution of
   byte [b] when [k] more input bytes follow it in the same word.
   ts.(0) is the plain byte table. *)
let tables8 =
  lazy
    begin
      let t0 = Lazy.force table in
      let ts = Array.make 8 t0 in
      for k = 1 to 7 do
        let prev = ts.(k - 1) in
        ts.(k) <-
          Array.init 256 (fun i ->
              (prev.(i) lsr 8) lxor t0.(prev.(i) land 0xFF))
      done;
      ts
    end

let mask32 = 0xFFFFFFFF
let to_int32 c = Int32.of_int c
let of_int32 c = Int32.to_int c land mask32

(* Raw register update: [c] is the post-inversion crc value as an int
   in [0, 2^32). *)
let update_int crc buf ~pos ~len =
  let t = Lazy.force table in
  let c = ref (crc lxor mask32) in
  let i = ref pos in
  let stop = pos + len in
  if len >= 16 then begin
    let ts = Lazy.force tables8 in
    let t7 = ts.(7) and t6 = ts.(6) and t5 = ts.(5) and t4 = ts.(4) in
    let t3 = ts.(3) and t2 = ts.(2) and t1 = ts.(1) and t0 = ts.(0) in
    while stop - !i >= 8 do
      let i0 = !i in
      let lo =
        (Char.code (Bytes.unsafe_get buf i0)
        lor (Char.code (Bytes.unsafe_get buf (i0 + 1)) lsl 8)
        lor (Char.code (Bytes.unsafe_get buf (i0 + 2)) lsl 16)
        lor (Char.code (Bytes.unsafe_get buf (i0 + 3)) lsl 24))
        lxor !c
      in
      let hi =
        Char.code (Bytes.unsafe_get buf (i0 + 4))
        lor (Char.code (Bytes.unsafe_get buf (i0 + 5)) lsl 8)
        lor (Char.code (Bytes.unsafe_get buf (i0 + 6)) lsl 16)
        lor (Char.code (Bytes.unsafe_get buf (i0 + 7)) lsl 24)
      in
      c :=
        Array.unsafe_get t7 (lo land 0xFF)
        lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
        lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
        lxor Array.unsafe_get t4 (lo lsr 24)
        lxor Array.unsafe_get t3 (hi land 0xFF)
        lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
        lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
        lxor Array.unsafe_get t0 (hi lsr 24);
      i := i0 + 8
    done
  end;
  while !i < stop do
    c :=
      Array.unsafe_get t
        ((!c lxor Char.code (Bytes.unsafe_get buf !i)) land 0xFF)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor mask32

let update crc buf ~pos ~len = to_int32 (update_int (of_int32 crc) buf ~pos ~len)
let bytes buf = update 0l buf ~pos:0 ~len:(Bytes.length buf)
let string s = bytes (Bytes.unsafe_of_string s)

let update_string crc s =
  let b = Bytes.unsafe_of_string s in
  to_int32 (update_int (of_int32 crc) b ~pos:0 ~len:(Bytes.length b))

(* -------------------- GF(2) combine machinery -------------------- *)

(* A linear operator on the 32-bit register is a 32-column matrix;
   column [i] is the image of bit [i]. *)
let gf2_times mat vec =
  let sum = ref 0 in
  let v = ref vec in
  let i = ref 0 in
  while !v <> 0 do
    if !v land 1 <> 0 then sum := !sum lxor mat.(!i);
    v := !v lsr 1;
    incr i
  done;
  !sum

let gf2_square dst src =
  for i = 0 to 31 do
    dst.(i) <- gf2_times src src.(i)
  done

(* Operator for appending one zero *bit* to the (reflected) register. *)
let op_one_bit () =
  let m = Array.make 32 0 in
  m.(0) <- 0xEDB88320;
  let row = ref 1 in
  for i = 1 to 31 do
    m.(i) <- !row;
    row := !row lsl 1
  done;
  m

(* Cache of "append 2^k zero bytes" operators and the crc values of
   2^k zero bytes, built on demand.  [zero_ops.(k)] applies
   x^(8*2^k); [zero_crcs.(k)] = crc32 of 2^k zero bytes. *)
let max_pow = 48
let zero_ops : int array option array = Array.make max_pow None
let zero_crcs : int array = Array.make max_pow 0
let zero_cached = ref 0

(* Apply [len] zero bytes to the raw register value [c] (post-inversion
   form), zlib-style: build the x^(8*len) operator by squaring. *)
let combine_int crc1 crc2 len2 =
  if len2 <= 0 then crc1
  else begin
    let even = Array.make 32 0 and odd = Array.make 32 0 in
    (* odd <- one zero bit; even <- two bits; odd <- four bits. *)
    Array.blit (op_one_bit ()) 0 odd 0 32;
    gf2_square even odd;
    gf2_square odd even;
    let c = ref crc1 in
    let n = ref len2 in
    let continue = ref true in
    while !continue do
      gf2_square even odd;
      if !n land 1 <> 0 then c := gf2_times even !c;
      n := !n lsr 1;
      if !n = 0 then continue := false
      else begin
        gf2_square odd even;
        if !n land 1 <> 0 then c := gf2_times odd !c;
        n := !n lsr 1;
        if !n = 0 then continue := false
      end
    done;
    !c lxor crc2
  end

let combine crc1 crc2 len2 =
  to_int32 (combine_int (of_int32 crc1) (of_int32 crc2) len2)

let ensure_zero_cache k =
  if !zero_cached = 0 then begin
    (* Seed: operator and crc for 2^0 = 1 zero byte. *)
    let one_bit = op_one_bit () in
    let b2 = Array.make 32 0 and b4 = Array.make 32 0 and b8 = Array.make 32 0 in
    gf2_square b2 one_bit;
    gf2_square b4 b2;
    gf2_square b8 b4;
    zero_ops.(0) <- Some b8;
    zero_crcs.(0) <- update_int 0 (Bytes.make 1 '\000') ~pos:0 ~len:1;
    zero_cached := 1
  end;
  while !zero_cached <= k do
    let i = !zero_cached in
    let prev = match zero_ops.(i - 1) with Some m -> m | None -> assert false in
    let m = Array.make 32 0 in
    gf2_square m prev;
    zero_ops.(i) <- Some m;
    (* crc of 2^i zeros = combine of two 2^(i-1) runs:
       crc(Z ++ Z) = M_{|Z|}(crc Z) ^ crc Z. *)
    let half = zero_crcs.(i - 1) in
    zero_crcs.(i) <- gf2_times prev half lxor half;
    zero_cached := i + 1
  done

(* Append [n] zero bytes to a crc value in O(log n), via the combine
   identity crc(A ++ B) = M_{|B|}(crc A) ^ crc B with B a zero run:
   walk the binary decomposition of [n] with the cached power
   matrices and zero-run crcs. *)
let append_zeros_int crc n =
  if n <= 0 then crc
  else begin
    (* Highest power needed. *)
    let k = ref 0 in
    while n lsr !k > 1 do
      incr k
    done;
    ensure_zero_cache !k;
    let c = ref crc in
    let bit = ref 0 in
    let m = ref n in
    while !m <> 0 do
      if !m land 1 <> 0 then begin
        let op = match zero_ops.(!bit) with Some m -> m | None -> assert false in
        (* crc(A ++ Z_{2^bit}) = op*(crc A) ^ crc(Z_{2^bit}) *)
        c := gf2_times op !c lxor zero_crcs.(!bit)
      end;
      m := !m lsr 1;
      incr bit
    done;
    !c
  end

(* Small zero runs: the tableless byte step (input byte 0) beats the
   matrix math. *)
let zero_run_int crc n =
  if n < 256 then begin
    let t = Lazy.force table in
    let c = ref (crc lxor mask32) in
    for _ = 1 to n do
      c := Array.unsafe_get t (!c land 0xFF) lxor (!c lsr 8)
    done;
    !c lxor mask32
  end
  else append_zeros_int crc n

let update_zeros crc n = to_int32 (zero_run_int (of_int32 crc) n)

(* Synthetic stream: feed the register straight from generator words.
   The word is split into two native ints once, then consumed with
   plain shifts — no Int64 boxing in the byte loop. *)
let synth_run_int crc ~seed ~off ~len =
  let t = Lazy.force table in
  let c = ref (crc lxor mask32) in
  let o = ref off and n = ref len in
  let step b = c := Array.unsafe_get t ((!c lxor b) land 0xFF) lxor (!c lsr 8) in
  while !n > 0 && !o land 7 <> 0 do
    let w = Data.synth_word seed (!o asr 3) in
    let b =
      Int64.to_int (Int64.shift_right_logical w (8 * (!o land 7))) land 0xFF
    in
    step b;
    incr o;
    decr n
  done;
  if !n >= 8 then begin
    (* Aligned middle: fold each whole generator word with the
       slicing-by-8 tables — one table pass per 8 bytes. *)
    let ts = Lazy.force tables8 in
    let t7 = ts.(7) and t6 = ts.(6) and t5 = ts.(5) and t4 = ts.(4) in
    let t3 = ts.(3) and t2 = ts.(2) and t1 = ts.(1) and t0 = ts.(0) in
    while !n >= 8 do
      let w = Data.synth_word seed (!o asr 3) in
      let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL) lxor !c in
      let hi = Int64.to_int (Int64.shift_right_logical w 32) in
      c :=
        Array.unsafe_get t7 (lo land 0xFF)
        lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
        lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
        lxor Array.unsafe_get t4 (lo lsr 24)
        lxor Array.unsafe_get t3 (hi land 0xFF)
        lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
        lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
        lxor Array.unsafe_get t0 (hi lsr 24);
      o := !o + 8;
      n := !n - 8
    done
  end;
  while !n > 0 do
    let w = Data.synth_word seed (!o asr 3) in
    let b =
      Int64.to_int (Int64.shift_right_logical w (8 * (!o land 7))) land 0xFF
    in
    step b;
    incr o;
    decr n
  done;
  !c lxor mask32

let update_synth crc ~seed ~off ~len =
  to_int32 (synth_run_int (of_int32 crc) ~seed ~off ~len)

let update_data crc d =
  let c =
    Data.fold_slices d ~init:(of_int32 crc) ~f:(fun c s ->
        match s with
        | Data.Sreal r -> update_int c r.buf ~pos:r.pos ~len:r.len
        | Data.Ssynth s -> synth_run_int c ~seed:s.seed ~off:s.off ~len:s.len
        | Data.Szero z -> zero_run_int c z.len)
  in
  to_int32 c

let data d = update_data 0l d

(* Domain safety: force the code tables and prebuild the whole zero-run
   cache during module initialisation, which runs on the initial domain
   before any batch can spawn a domain.  After this everything above is
   read-only, so engines on several domains share it without
   synchronisation (lazily forcing from two domains at once would race;
   so would growing the zero cache on demand). *)
let () =
  ignore (Lazy.force table);
  ignore (Lazy.force tables8);
  ensure_zero_cache (max_pow - 1)
