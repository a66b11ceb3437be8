(* The splitmix64 state lives unboxed in an 8-byte buffer: an [int64]
   record field would box a fresh value on every draw.  [int64] and
   [mix64] are inlined into the draws below, so [int], [byte], [bool]
   and the bits of [float] are computed without allocating. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (int64 t)

let int t n =
  assert (n > 0);
  let v = Int64.to_int (int64 t) land max_int in
  v mod n

let float t x =
  (* 53 random bits scaled to [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. x

let bool t = Int64.to_int (int64 t) land 1 = 1
let byte t = Char.unsafe_chr (Int64.to_int (int64 t) land 0xFF)

let draw_bytes t buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Rng.draw_bytes";
  let s = ref (Bytes.get_int64_le t 0) in
  for i = pos to pos + len - 1 do
    s := Int64.add !s golden_gamma;
    Bytes.unsafe_set buf i (Char.unsafe_chr (Int64.to_int (mix64 !s) land 0xFF))
  done;
  Bytes.set_int64_le t 0 !s

let fill_bytes t buf =
  let n = Bytes.length buf in
  let i = ref 0 in
  while !i + 8 <= n do
    Bytes.set_int64_le buf !i (int64 t);
    i := !i + 8
  done;
  draw_bytes t buf ~pos:!i ~len:(n - !i)

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
