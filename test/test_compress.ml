(* Tests for the LZW codec used by the NICFS compression stage. *)

open Compress

let roundtrip s =
  let enc = Lzw.encode (Bytes.of_string s) in
  Bytes.to_string (Lzw.decode enc)

let test_empty () = Alcotest.(check string) "empty" "" (roundtrip "")

let test_simple () =
  Alcotest.(check string) "simple" "hello world" (roundtrip "hello world")

let test_repetitive_compresses () =
  let s = String.concat "" (List.init 1000 (fun _ -> "abcabcabc")) in
  let enc = Lzw.encode (Bytes.of_string s) in
  Alcotest.(check string) "roundtrip" s (Bytes.to_string (Lzw.decode enc));
  Alcotest.(check bool)
    (Printf.sprintf "compresses well (%d -> %d)" (String.length s)
       (Bytes.length enc))
    true
    (Bytes.length enc < String.length s / 4)

let test_zeros_compress_strongly () =
  let s = String.make 100_000 '\000' in
  let enc = Lzw.encode (Bytes.of_string s) in
  Alcotest.(check string) "roundtrip" s (Bytes.to_string (Lzw.decode enc));
  Alcotest.(check bool) "better than 10x" true
    (Bytes.length enc < String.length s / 10)

let test_cscsc_case () =
  (* The classic LZW corner case: code referencing the entry being
     defined. "ababab..." exercises it. *)
  let s = String.concat "" (List.init 500 (fun _ -> "ab")) in
  Alcotest.(check string) "cScSc" s (roundtrip s)

let test_single_char () = Alcotest.(check string) "x" "x" (roundtrip "x")

let test_binary_bytes () =
  let b = Bytes.init 4096 (fun i -> Char.chr (i * 37 mod 256)) in
  let out = Lzw.decode (Lzw.encode b) in
  Alcotest.(check bytes) "binary roundtrip" b out

let test_random_incompressible () =
  let rng = Sim.Rng.create 3 in
  let b = Bytes.create 50_000 in
  Sim.Rng.fill_bytes rng b;
  let enc = Lzw.encode b in
  Alcotest.(check bytes) "roundtrip" b (Lzw.decode enc);
  (* Random data may expand (12-bit codes per byte-ish) but not by much
     more than 50%. *)
  Alcotest.(check bool) "bounded expansion" true
    (Bytes.length enc < Bytes.length b * 3 / 2 + 64)

let test_zero_ratio_controls_compression () =
  (* The Tencent Sort experiment's premise: more zeros => smaller wire
     size. *)
  let rng = Sim.Rng.create 5 in
  let sizes =
    List.map
      (fun zeros ->
        let d =
          Storage.Data.fill_ratio
            (Storage.Data.zero ~len:200_000)
            ~zeros ~rng
        in
        Bytes.length (Lzw.encode (Storage.Data.to_bytes d)))
      [ 0.4; 0.6; 0.8 ]
  in
  match sizes with
  | [ s40; s60; s80 ] ->
      Alcotest.(check bool)
        (Printf.sprintf "monotone: %d > %d > %d" s40 s60 s80)
        true
        (s40 > s60 && s60 > s80)
  | _ -> assert false

let test_decode_rejects_garbage () =
  match Lzw.decode (Bytes.of_string "abc") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_ratio_helper () =
  Alcotest.(check (float 1e-9)) "half saved" 0.5
    (Lzw.ratio ~original:100 ~compressed:50);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Lzw.ratio ~original:0 ~compressed:0)

let prop_roundtrip =
  QCheck.Test.make ~name:"lzw roundtrips arbitrary strings" ~count:300
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun s -> roundtrip s = s)

let prop_roundtrip_bytes =
  (* Full 0-255 byte range, not just printable characters: the codec
     sees raw PM log payloads. *)
  QCheck.Test.make ~name:"lzw roundtrips arbitrary bytes" ~count:300
    QCheck.(array_of_size Gen.(0 -- 2000) (int_bound 255))
    (fun a ->
      let b = Bytes.init (Array.length a) (fun i -> Char.chr a.(i)) in
      Bytes.equal (Lzw.decode (Lzw.encode b)) b)

let prop_roundtrip_low_entropy =
  QCheck.Test.make ~name:"lzw roundtrips low-entropy strings" ~count:200
    QCheck.(
      pair (string_of_size Gen.(1 -- 8)) (int_range 1 500))
    (fun (unit_s, reps) ->
      QCheck.assume (String.length unit_s > 0);
      let s = String.concat "" (List.init reps (fun _ -> unit_s)) in
      roundtrip s = s)

(* ------------------------------------------------------------------ *)
(* Cross-compatibility with the historical encoder                     *)
(* ------------------------------------------------------------------ *)

(* Verbatim copy of the pre-streaming encoder (Buffer bitwriter,
   per-call Hashtbl dictionary), kept as a reference oracle: the
   rewritten encoder must produce byte-identical output. *)
module Legacy = struct
  let max_code = 4096
  let first_free = 256

  module Bitwriter = struct
    type t = { buf : Buffer.t; mutable acc : int; mutable bits : int }

    let create () = { buf = Buffer.create 1024; acc = 0; bits = 0 }

    let put t code =
      t.acc <- t.acc lor (code lsl t.bits);
      t.bits <- t.bits + 12;
      while t.bits >= 8 do
        Buffer.add_uint8 t.buf (t.acc land 0xFF);
        t.acc <- t.acc lsr 8;
        t.bits <- t.bits - 8
      done

    let finish t =
      if t.bits > 0 then Buffer.add_uint8 t.buf (t.acc land 0xFF);
      Buffer.to_bytes t.buf
  end

  let encode input =
    let n = Bytes.length input in
    let out = Bitwriter.create () in
    let header = Bytes.create 8 in
    Bytes.set_int64_le header 0 (Int64.of_int n);
    if n = 0 then Bytes.cat header (Bitwriter.finish out)
    else begin
      let dict = Hashtbl.create 4096 in
      let next = ref first_free in
      let w = ref (Char.code (Bytes.get input 0)) in
      for i = 1 to n - 1 do
        let c = Char.code (Bytes.get input i) in
        let key = (!w lsl 8) lor c in
        match Hashtbl.find_opt dict key with
        | Some code -> w := code
        | None ->
            Bitwriter.put out !w;
            if !next < max_code then begin
              Hashtbl.add dict key !next;
              incr next
            end;
            w := c
      done;
      Bitwriter.put out !w;
      Bytes.cat header (Bitwriter.finish out)
    end
end

let prop_encoder_matches_legacy =
  QCheck.Test.make ~name:"rewritten encoder is byte-identical to legacy"
    ~count:300
    QCheck.(array_of_size Gen.(0 -- 2000) (int_bound 255))
    (fun a ->
      let b = Bytes.init (Array.length a) (fun i -> Char.chr a.(i)) in
      Bytes.equal (Lzw.encode b) (Legacy.encode b))

let test_legacy_dict_freeze_compat () =
  (* Inputs big and diverse enough to fill all 4096 dictionary entries,
     exercising the freeze path in both encoders. *)
  let rng = Sim.Rng.create 17 in
  let b = Bytes.create 200_000 in
  Sim.Rng.fill_bytes rng b;
  Alcotest.(check bytes) "random" (Legacy.encode b) (Lzw.encode b);
  let rep =
    Bytes.of_string
      (String.concat "" (List.init 8000 (fun i -> Printf.sprintf "%x" i)))
  in
  Alcotest.(check bytes) "structured" (Legacy.encode rep) (Lzw.encode rep)

(* ------------------------------------------------------------------ *)
(* Streaming entry points over payload forms                           *)
(* ------------------------------------------------------------------ *)

module Data = Storage.Data

(* Payloads in every form the replication pipeline produces: real,
   synthetic, zero, and rope concatenations of the three. *)
let gen_payload =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map (fun s -> Data.of_string s) (string_size ~gen:char (0 -- 500)));
        (3, map2 (fun seed len -> Data.synthetic ~seed ~len) (1 -- 100) (0 -- 500));
        (2, map (fun len -> Data.zero ~len) (0 -- 500));
      ]
  in
  frequency
    [ (1, leaf); (2, map Data.concat (list_size (0 -- 5) leaf)) ]

let arb_payload =
  QCheck.make gen_payload ~print:(Format.asprintf "%a" Data.pp)

let prop_encode_data_matches_flat =
  QCheck.Test.make ~name:"encode_data equals encode of materialized payload"
    ~count:300 arb_payload (fun d ->
      Bytes.equal
        (Data.to_bytes (Lzw.encode_data d))
        (Lzw.encode (Data.to_bytes d)))

let prop_encoded_length_data =
  QCheck.Test.make ~name:"encoded_length_data equals encode_data length"
    ~count:300 arb_payload (fun d ->
      Lzw.encoded_length_data d = Data.length (Lzw.encode_data d))

let prop_roundtrip_data_forms =
  QCheck.Test.make ~name:"lzw roundtrips every payload form" ~count:300
    arb_payload (fun d ->
      Data.equal (Lzw.decode_data (Lzw.encode_data d)) (Data.real (Data.to_bytes d)))

(* Chunk-sized ropes, 16-64 KB: big enough to fill the 4096-code
   dictionary, so the frozen-dictionary path and the frozen zero-memo
   miss are exercised.  Leaves are Tencent-Sort-shaped real records (a
   10-byte random key, then a payload whose first 60% is a zero run),
   synthetic slices and zero slices. *)
let tencent_records st ~records =
  let b = Bytes.make (records * 100) '\000' in
  for r = 0 to records - 1 do
    for i = 0 to 9 do
      Bytes.set b ((r * 100) + i) (Char.chr (Random.State.int st 256))
    done;
    for i = 64 to 99 do
      Bytes.set b ((r * 100) + i) (Char.chr (Random.State.int st 256))
    done
  done;
  Data.real b

let gen_chunk_rope st =
  let target = 16384 + Random.State.int st (65536 - 16384 + 1) in
  let rec leaves acc len =
    if len >= target then acc
    else
      let leaf =
        match Random.State.int st 4 with
        | 0 | 1 ->
            tencent_records st ~records:(1 + Random.State.int st 80)
        | 2 ->
            Data.synthetic
              ~seed:(1 + Random.State.int st 100)
              ~len:(1 + Random.State.int st 8192)
        | _ -> Data.zero ~len:(1 + Random.State.int st 8192)
      in
      let leaf = Data.sub leaf ~pos:0 ~len:(min (Data.length leaf) (target - len)) in
      leaves (leaf :: acc) (len + Data.length leaf)
  in
  Data.concat (List.rev (leaves [] 0))

let arb_chunk_rope =
  QCheck.make gen_chunk_rope ~print:(fun d ->
      Printf.sprintf "%d bytes in %d leaves" (Data.length d) (Data.leaf_count d))

(* The byte-at-a-time Hashtbl encoder is an oracle independent of the
   packed dictionary that [encoded_length_data] shares with [encode]. *)
let legacy_length d = Bytes.length (Legacy.encode (Data.to_bytes d))

let prop_encoded_length_chunk_ropes =
  QCheck.Test.make ~name:"encoded_length_data of 16-64 KB ropes matches legacy"
    ~count:60 arb_chunk_rope (fun d ->
      let n = Lzw.encoded_length_data d in
      n = legacy_length d && n = Data.length (Lzw.encode_data d))

let prop_encoded_length_back_to_back =
  QCheck.Test.make ~name:"encoded_length_data back to back reuses the table"
    ~count:40 (QCheck.pair arb_chunk_rope arb_chunk_rope) (fun (a, b) ->
      let want_a = Data.length (Lzw.encode_data a) in
      let want_b = Data.length (Lzw.encode_data b) in
      let got_a = Lzw.encoded_length_data a in
      let got_b = Lzw.encoded_length_data b in
      got_a = want_a && got_b = want_b && got_a = Lzw.encoded_length_data a)

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "compress"
    [
      ( "lzw",
        [
          tc "empty" `Quick test_empty;
          tc "simple" `Quick test_simple;
          tc "repetitive compresses" `Quick test_repetitive_compresses;
          tc "zeros compress strongly" `Quick test_zeros_compress_strongly;
          tc "cScSc corner case" `Quick test_cscsc_case;
          tc "single char" `Quick test_single_char;
          tc "binary bytes" `Quick test_binary_bytes;
          tc "random incompressible" `Quick test_random_incompressible;
          tc "zero ratio controls size" `Quick
            test_zero_ratio_controls_compression;
          tc "decode rejects garbage" `Quick test_decode_rejects_garbage;
          tc "ratio helper" `Quick test_ratio_helper;
          qt prop_roundtrip;
          qt prop_roundtrip_bytes;
          qt prop_roundtrip_low_entropy;
        ] );
      ( "lzw-streaming",
        [
          tc "dict freeze compat" `Quick test_legacy_dict_freeze_compat;
          qt prop_encoder_matches_legacy;
          qt prop_encode_data_matches_flat;
          qt prop_encoded_length_data;
          qt prop_roundtrip_data_forms;
          qt prop_encoded_length_chunk_ropes;
          qt prop_encoded_length_back_to_back;
        ] );
    ]
