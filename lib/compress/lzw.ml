(* Classic LZW with 12-bit codes. The dictionary freezes when it
   reaches 4096 entries (no reset), which keeps encoder and decoder
   trivially in lock-step; chunk-sized inputs (<= 4 MB) rarely benefit
   from resets anyway.

   The encoder is built for the hot replication path:
   - the dictionary is a reusable open-addressed int table (no
     per-encode Hashtbl, no boxing, generation-stamped so reuse is a
     single counter bump);
   - codes are packed into a preallocated [bytes] sized from the worst
     case, not a growing [Buffer];
   - [encode_data] consumes payload slices directly — real spans are
     read in place, synthetic spans are fed from generator words, zero
     runs feed constant bytes — so a 4 MB chunk is never materialized
     just to measure its wire size. *)

let max_code = 4096
let first_free = 256

(* -------------------- dictionary -------------------- *)

(* Open addressing, linear probing.  Keys are [(prefix_code << 8) lor
   byte] (20 bits); capacity 16384 keeps load under 25% for the 3840
   insertable entries.  A slot is live iff its stamp equals the current
   generation, so "clearing" is [incr generation].

   The whole dictionary (plus the zero-run memo below) is one record,
   held in domain-local storage: engines on different domains (batched
   simulations) each get their own scratch state
   instead of racing on globals. *)
let dict_bits = 14
let dict_cap = 1 lsl dict_bits
let dict_mask = dict_cap - 1

type dict = {
  d_keys : int array;
  d_vals : int array;
  d_stamp : int array;
  (* Zero-run memo: replicated payloads are dominated by runs of
     zeros, for which [enc_step] keeps probing the same (w, 0) keys.
     [z_next.(w)] caches the dictionary's answer for prefix code [w]
     followed by a zero byte: >= 0 is the extended code, -1 means the
     dictionary is frozen and the key will never appear.  Valid iff
     [z_stamp.(w)] equals the current generation. *)
  z_next : int array;
  z_stamp : int array;
  mutable d_gen : int;
}

let make_dict () =
  {
    d_keys = Array.make dict_cap 0;
    d_vals = Array.make dict_cap 0;
    d_stamp = Array.make dict_cap (-1);
    z_next = Array.make max_code 0;
    z_stamp = Array.make max_code (-1);
    d_gen = 0;
  }

let dls_dict = Domain.DLS.new_key make_dict
let get_dict () = Domain.DLS.get dls_dict
let dict_reset d = d.d_gen <- d.d_gen + 1

let hash key = (key * 0x9E3779B1) lsr (31 - dict_bits) land dict_mask

(* Find [key]; returns its code or -1. *)
let rec dict_find_from d key i =
  if d.d_stamp.(i) <> d.d_gen then -1
  else if d.d_keys.(i) = key then d.d_vals.(i)
  else dict_find_from d key ((i + 1) land dict_mask)

let dict_find d key = dict_find_from d key (hash key)

(* Insert [key] (not present) with value [v]. *)
let dict_add d key v =
  let i = ref (hash key) in
  while d.d_stamp.(!i) = d.d_gen do
    i := (!i + 1) land dict_mask
  done;
  d.d_keys.(!i) <- key;
  d.d_vals.(!i) <- v;
  d.d_stamp.(!i) <- d.d_gen

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

(* The encoder automaton, fed one byte at a time through [step]; the
   emit side is abstracted so the same loops serve both real encoding
   and pure size measurement. *)

let header_len = 8

(* Per-domain mutable automaton state (see [dls_dict]). *)
type enc = {
  dict : dict;
  mutable w : int;
  mutable next : int;
  emit : int -> unit;
}

let enc_step e c =
  if e.w < 0 then e.w <- c
  else begin
    let key = (e.w lsl 8) lor c in
    let code = dict_find e.dict key in
    if code >= 0 then e.w <- code
    else begin
      e.emit e.w;
      if e.next < max_code then begin
        dict_add e.dict key e.next;
        e.next <- e.next + 1
      end;
      e.w <- c
    end
  end

(* Defined after [enc_step_zero]; real buffers route their zero bytes
   through the memo too (tencent-sort records embed long zero runs). *)

(* [enc_step e 0], with the (w, 0) dictionary probe served from the
   zero-run memo: one array read on the hit path instead of a hashed
   probe chain.  Byte-identical output to the generic step. *)
let enc_step_zero e =
  let w = e.w in
  if w < 0 then e.w <- 0
  else begin
    let d = e.dict in
    if d.z_stamp.(w) = d.d_gen then begin
      let nxt = d.z_next.(w) in
      if nxt >= 0 then e.w <- nxt
      else begin
        (* Frozen dictionary: (w, 0) is a permanent miss. *)
        e.emit w;
        e.w <- 0
      end
    end
    else begin
      let key = w lsl 8 in
      let code = dict_find d key in
      if code >= 0 then begin
        d.z_stamp.(w) <- d.d_gen;
        d.z_next.(w) <- code;
        e.w <- code
      end
      else begin
        e.emit w;
        if e.next < max_code then begin
          dict_add d key e.next;
          d.z_stamp.(w) <- d.d_gen;
          d.z_next.(w) <- e.next;
          e.next <- e.next + 1
        end
        else begin
          d.z_stamp.(w) <- d.d_gen;
          d.z_next.(w) <- -1
        end;
        e.w <- 0
      end
    end
  end

let enc_feed_zeros e n =
  for _ = 1 to n do
    enc_step_zero e
  done

let enc_feed_bytes e buf ~pos ~len =
  for i = pos to pos + len - 1 do
    let c = Char.code (Bytes.unsafe_get buf i) in
    if c = 0 then enc_step_zero e else enc_step e c
  done

let enc_feed_synth e ~seed ~off ~len =
  let o = ref off and n = ref len in
  while !n > 0 && !o land 7 <> 0 do
    let w = Storage.Data.synth_word seed (!o asr 3) in
    enc_step e
      (Int64.to_int (Int64.shift_right_logical w (8 * (!o land 7))) land 0xFF);
    incr o;
    decr n
  done;
  while !n >= 8 do
    let w = Storage.Data.synth_word seed (!o asr 3) in
    let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    enc_step e (lo land 0xFF);
    enc_step e ((lo lsr 8) land 0xFF);
    enc_step e ((lo lsr 16) land 0xFF);
    enc_step e ((lo lsr 24) land 0xFF);
    enc_step e (hi land 0xFF);
    enc_step e ((hi lsr 8) land 0xFF);
    enc_step e ((hi lsr 16) land 0xFF);
    enc_step e ((hi lsr 24) land 0xFF);
    o := !o + 8;
    n := !n - 8
  done;
  while !n > 0 do
    let w = Storage.Data.synth_word seed (!o asr 3) in
    enc_step e
      (Int64.to_int (Int64.shift_right_logical w (8 * (!o land 7))) land 0xFF);
    incr o;
    decr n
  done

let enc_feed_data e d =
  Storage.Data.iter_slices d (fun s ->
      match s with
      | Storage.Data.Sreal r -> enc_feed_bytes e r.buf ~pos:r.pos ~len:r.len
      | Storage.Data.Ssynth sy ->
          enc_feed_synth e ~seed:sy.seed ~off:sy.off ~len:sy.len
      | Storage.Data.Szero z -> enc_feed_zeros e z.len)

let enc_finish e = if e.w >= 0 then e.emit e.w

let encode input =
  let n = Bytes.length input in
  let out = Bitwriter.create ~input_len:n ~header:header_len in
  Bytes.set_int64_le out.Bitwriter.buf 0 (Int64.of_int n);
  if n = 0 then Bitwriter.finish out
  else begin
    let dict = get_dict () in
    dict_reset dict;
    let e = { dict; w = -1; next = first_free; emit = Bitwriter.put out } in
    enc_feed_bytes e input ~pos:0 ~len:n;
    enc_finish e;
    Bitwriter.finish out
  end

let encode_data d =
  let n = Storage.Data.length d in
  let out = Bitwriter.create ~input_len:n ~header:header_len in
  Bytes.set_int64_le out.Bitwriter.buf 0 (Int64.of_int n);
  if n > 0 then begin
    let dict = get_dict () in
    dict_reset dict;
    let e = { dict; w = -1; next = first_free; emit = Bitwriter.put out } in
    enc_feed_data e d;
    enc_finish e
  end;
  Storage.Data.real (Bitwriter.finish out)

let encoded_length_data d =
  let n = Storage.Data.length d in
  if n = 0 then header_len
  else begin
    let dict = get_dict () in
    dict_reset dict;
    let codes = ref 0 in
    let e =
      { dict; w = -1; next = first_free; emit = (fun _ -> incr codes) }
    in
    enc_feed_data e d;
    enc_finish e;
    header_len + (((!codes * 12) + 7) / 8)
  end

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
