(* Classic LZW with 12-bit codes. The dictionary freezes when it
   reaches 4096 entries (no reset), which keeps encoder and decoder
   trivially in lock-step; chunk-sized inputs (<= 4 MB) rarely benefit
   from resets anyway.

   The encoder is built for the hot replication path, where NICFS only
   needs the compressed *length* of each chunk:
   - the dictionary is a reusable open-addressed table of packed ints,
     one load per probe (no per-encode Hashtbl, no boxing,
     generation-stamped so reuse is a single counter bump);
   - one byte loop serves encoding and length counting: it keeps the
     automaton state (current prefix code, next free code) in locals
     and makes no calls, staging emitted codes per window; counting
     only adds up the staged codes, encoding also bit-packs them;
   - codes are packed into a preallocated [bytes] sized from the worst
     case, not a growing [Buffer];
   - [encode_data] consumes payload slices directly — real spans are
     read in place, synthetic spans are generated through a small
     window, zero runs feed constant bytes — so a 4 MB chunk is never
     materialized just to measure its wire size. *)

let max_code = 4096
let first_free = 256

(* -------------------- dictionary -------------------- *)

(* Open addressing, linear probing.  Keys are [(prefix_code << 8) lor
   byte] (20 bits); capacity 32768 keeps load under 12% for the 3840
   insertable entries, so most probes end at the first slot (on
   Tencent-Sort-shaped chunks 16384 slots ran ~15% slower and 65536 no
   faster).  A slot packs generation, key and code into one int:

     slot = (gen lsl 32) lor (key lsl 12) lor code

   so a probe is a single load: [slot lsr 12] equals [(gen lsl 20) lor
   key] on a hit, and a slot whose generation is not the current one is
   free.  "Clearing" is a generation bump; slots start at generation 0,
   which is never current.

   Zero-run memo: replicated payloads are dominated by runs of zeros,
   for which the encoder keeps probing the same (w, 0) keys.
   [zmemo.(w)] caches the dictionary's answer for prefix code [w]
   followed by a zero byte, packed as [(gen lsl 12) lor code]: the
   entry is valid iff its generation is current; [code] is the
   extended code, or 0 when the dictionary is frozen and the key will
   never appear (an extension is never a base code, so 0 is free).

   The whole dictionary is one record, held in domain-local storage:
   engines on different domains (batched simulations) each get their
   own scratch state instead of racing on globals. *)
let dict_bits = 15
let dict_cap = 1 lsl dict_bits
let dict_mask = dict_cap - 1

(* Generations stay below 2^30 so that [gen lsl 32] fits in an int. *)
let max_gen = 1 lsl 30

(* The byte loop runs over at most this many bytes at a time; synthetic
   slices are generated into [window] and zero runs read from [zeros],
   one window at a time. *)
let window_len = 4096

type dict = {
  slots : int array;
  zmemo : int array;
  window : bytes;
  pending : int array;  (** codes emitted in the current window *)
  mutable gen : int;
}

let make_dict () =
  {
    slots = Array.make dict_cap 0;
    zmemo = Array.make max_code 0;
    window = Bytes.create window_len;
    pending = Array.make window_len 0;
    gen = 0;
  }

let dls_dict = Domain.DLS.new_key make_dict

(* The domain's dictionary, emptied. *)
let fresh_dict () =
  let d = Domain.DLS.get dls_dict in
  if d.gen + 1 < max_gen then d.gen <- d.gen + 1
  else begin
    Array.fill d.slots 0 dict_cap 0;
    Array.fill d.zmemo 0 max_code 0;
    d.gen <- 1
  end;
  d

(* Fibonacci hashing: the top [dict_bits] bits of [key * 2^63/phi]. *)
let hash key = (key * 0x4F1BBCDCBFA53E0B) lsr (63 - dict_bits)

(* -------------------- bit packing -------------------- *)

(* Little-endian 12-bit packing into a preallocated buffer, identical
   byte layout to the historical Buffer-based writer. *)
module Bitwriter = struct
  type t = {
    buf : bytes;
    mutable pos : int;
    mutable acc : int;
    mutable bits : int;
  }

  (* Worst case: one 12-bit code per input byte plus the final code. *)
  let create ~input_len ~header =
    let code_bytes = (((input_len + 1) * 12) + 7) / 8 in
    { buf = Bytes.create (header + code_bytes); pos = header; acc = 0; bits = 0 }

  let put t code =
    t.acc <- t.acc lor (code lsl t.bits);
    t.bits <- t.bits + 12;
    while t.bits >= 8 do
      Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (t.acc land 0xFF));
      t.pos <- t.pos + 1;
      t.acc <- t.acc lsr 8;
      t.bits <- t.bits - 8
    done

  let finish t =
    if t.bits > 0 then begin
      Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (t.acc land 0xFF));
      t.pos <- t.pos + 1;
      t.bits <- 0
    end;
    if t.pos = Bytes.length t.buf then t.buf else Bytes.sub t.buf 0 t.pos
end

module Bitreader = struct
  type t = { buf : Bytes.t; mutable pos : int; mutable acc : int; mutable bits : int }

  let create buf ~pos = { buf; pos; acc = 0; bits = 0 }

  let get t =
    while t.bits < 12 && t.pos < Bytes.length t.buf do
      t.acc <- t.acc lor (Bytes.get_uint8 t.buf t.pos lsl t.bits);
      t.pos <- t.pos + 1;
      t.bits <- t.bits + 8
    done;
    if t.bits < 12 then None
    else begin
      let code = t.acc land 0xFFF in
      t.acc <- t.acc lsr 12;
      t.bits <- t.bits - 12;
      Some code
    end
end

(* -------------------- encode -------------------- *)

let header_len = 8

(* One encoding (or length count) in progress.  [w] is the current
   prefix code — there always is one: the first input byte is consumed
   before any slice is fed — [next] the next free code and [codes] the
   number of codes emitted so far.  [out], when present, also receives
   every emitted code. *)
type enc = {
  d : dict;
  out : Bitwriter.t option;
  mutable w : int;
  mutable next : int;
  mutable codes : int;
}

(* Run the automaton over [len <= window_len] bytes of [buf] from
   [pos], staging the codes it emits in [pending] (at most one per
   byte); returns how many.  This is the only byte loop, and it makes no
   calls, so the state stays in registers: a (w, 0) step is one memo
   load, any other step one slot load per probe. *)
let step_window e buf ~pos ~len =
  let d = e.d in
  let slots = d.slots and zmemo = d.zmemo and pending = d.pending in
  let gen = d.gen in
  let w = ref e.w and next = ref e.next and n = ref 0 in
  for p = pos to pos + len - 1 do
    let c = Char.code (Bytes.unsafe_get buf p) in
    let z = if c = 0 then Array.unsafe_get zmemo !w else 0 in
    if c = 0 && z lsr 12 = gen then begin
      let code = z land 0xFFF in
      if code > 0 then w := code
      else begin
        (* Frozen dictionary: (w, 0) is a permanent miss. *)
        Array.unsafe_set pending !n !w;
        incr n;
        w := 0
      end
    end
    else begin
      let w0 = !w in
      let key = (w0 lsl 8) lor c in
      let tag = (gen lsl 20) lor key in
      let i = ref (hash key) in
      let v = ref (Array.unsafe_get slots !i) in
      while !v lsr 12 <> tag && !v lsr 32 = gen do
        i := (!i + 1) land dict_mask;
        v := Array.unsafe_get slots !i
      done;
      (* What (w0, c) extends to: its code, or 0 once frozen. *)
      let ext =
        if !v lsr 12 = tag then begin
          w := !v land 0xFFF;
          !w
        end
        else begin
          Array.unsafe_set pending !n w0;
          incr n;
          w := c;
          if !next < max_code then begin
            Array.unsafe_set slots !i ((tag lsl 12) lor !next);
            incr next;
            !next - 1
          end
          else 0
        end
      in
      if c = 0 then Array.unsafe_set zmemo w0 ((gen lsl 12) lor ext)
    end
  done;
  e.w <- !w;
  e.next <- !next;
  !n

(* Hand the first [n] staged codes on. *)
let emit_pending e n =
  e.codes <- e.codes + n;
  match e.out with
  | None -> ()
  | Some o ->
      for i = 0 to n - 1 do
        Bitwriter.put o (Array.unsafe_get e.d.pending i)
      done

(* Zero runs are fed from this constant window. *)
let zeros = Bytes.make window_len '\000'

(* [f off k] for consecutive windows [off, off + k) covering [0, len). *)
let by_window len f =
  let off = ref 0 in
  while !off < len do
    let k = min window_len (len - !off) in
    f !off k;
    off := !off + k
  done

(* Feed [len <= window_len] bytes. *)
let feed_window e buf ~pos ~len =
  emit_pending e (step_window e buf ~pos ~len)

let feed_slice e = function
  | Storage.Data.Sreal r ->
      by_window r.len (fun off k ->
          feed_window e r.buf ~pos:(r.pos + off) ~len:k)
  | Storage.Data.Ssynth sy ->
      let win = e.d.window in
      by_window sy.len (fun off k ->
          Storage.Data.synth_blit ~seed:sy.seed ~off:(sy.off + off) win ~pos:0
            ~len:k;
          feed_window e win ~pos:0 ~len:k)
  | Storage.Data.Szero z ->
      by_window z.len (fun _ k -> feed_window e zeros ~pos:0 ~len:k)

(* Encode a nonempty payload slice by slice; returns the number of
   codes emitted. *)
let run out data =
  let n = Storage.Data.length data in
  let e =
    {
      d = fresh_dict ();
      out;
      w = Char.code (Storage.Data.get data 0);
      next = first_free;
      codes = 0;
    }
  in
  Storage.Data.iter_slices (Storage.Data.sub data ~pos:1 ~len:(n - 1))
    (feed_slice e);
  (* The last prefix is the final code. *)
  e.d.pending.(0) <- e.w;
  emit_pending e 1;
  e.codes

let encode_payload data =
  let n = Storage.Data.length data in
  let out = Bitwriter.create ~input_len:n ~header:header_len in
  Bytes.set_int64_le out.Bitwriter.buf 0 (Int64.of_int n);
  if n > 0 then ignore (run (Some out) data : int);
  Bitwriter.finish out

let encode input = encode_payload (Storage.Data.real input)
let encode_data d = Storage.Data.real (encode_payload d)

let encoded_length_data d =
  if Storage.Data.length d = 0 then header_len
  else header_len + (((run None d * 12) + 7) / 8)

(* -------------------- decode -------------------- *)

let decode input =
  if Bytes.length input < 8 then invalid_arg "Lzw.decode: missing header";
  let n = Int64.to_int (Bytes.get_int64_le input 0) in
  if n < 0 then invalid_arg "Lzw.decode: bad length";
  let out = Buffer.create n in
  if n > 0 then begin
    let r = Bitreader.create input ~pos:8 in
    (* Chain representation: each code has a prefix code and a suffix
       byte; base codes 0..255 are their own byte. *)
    let prefix = Array.make max_code (-1) in
    let suffix = Array.make max_code '\000' in
    let next = ref first_free in
    let scratch = Bytes.create max_code in
    (* Expand a code into [scratch], returning (start, len); scratch is
       filled from the end backwards following the prefix chain. *)
    let expand code =
      let pos = ref max_code in
      let c = ref code in
      while !c >= 0 do
        decr pos;
        if !c < 256 then begin
          Bytes.set scratch !pos (Char.chr !c);
          c := -1
        end
        else begin
          if !c >= !next then invalid_arg "Lzw.decode: corrupt stream";
          Bytes.set scratch !pos suffix.(!c);
          c := prefix.(!c)
        end
      done;
      (!pos, max_code - !pos)
    in
    let first_char (start, _len) = Bytes.get scratch start in
    (match Bitreader.get r with
    | None -> invalid_arg "Lzw.decode: empty stream"
    | Some code0 ->
        if code0 >= 256 then invalid_arg "Lzw.decode: bad first code";
        Buffer.add_char out (Char.chr code0);
        let prev = ref code0 in
        let prev_first = ref (Char.chr code0) in
        let continue = ref true in
        while !continue && Buffer.length out < n do
          match Bitreader.get r with
          | None -> continue := false
          | Some code ->
              let span =
                if code < !next then expand code
                else if code = !next then begin
                  (* The cScSc special case: w + first char of w. *)
                  let start, len = expand !prev in
                  let moved = start - 1 in
                  if moved < 0 then invalid_arg "Lzw.decode: overflow";
                  Bytes.blit scratch start scratch moved len;
                  Bytes.set scratch (moved + len) !prev_first;
                  (moved, len + 1)
                end
                else invalid_arg "Lzw.decode: code out of range"
              in
              let start, len = span in
              Buffer.add_subbytes out scratch start len;
              if !next < max_code then begin
                prefix.(!next) <- !prev;
                suffix.(!next) <- first_char span;
                incr next
              end;
              prev := code;
              prev_first := first_char span
        done)
  end;
  let result = Buffer.to_bytes out in
  if Bytes.length result <> n then invalid_arg "Lzw.decode: length mismatch";
  result

let decode_data d = Storage.Data.real (decode (Storage.Data.to_bytes d))

let ratio ~original ~compressed =
  if original <= 0 then 0.0
  else 1.0 -. (float_of_int compressed /. float_of_int original)
