open Sim
open Storage
open Linefs

type result = {
  elapsed : Time.t;
  partition_time : Time.t;
  sort_time : Time.t;
  records : int;
  output_bytes : int;
}

let key_bytes = 10
let partition_cpu_per_record = Time.ns 100
let sort_cpu_per_compare = Time.ns 50

let gen_records ~records ~record_bytes ~zero_ratio rng =
  let payload = record_bytes - key_bytes in
  let zeroed = int_of_float (zero_ratio *. float_of_int payload) in
  Array.init records (fun _ ->
      let b = Bytes.make record_bytes '\000' in
      (* Keys stay uniformly random so range partitioning balances;
         only payloads carry the compressibility knob. *)
      Rng.draw_bytes rng b ~pos:0 ~len:key_bytes;
      (* The modified gensort zeroes a contiguous region of each
         payload, so the compressible fraction forms runs. *)
      Rng.draw_bytes rng b ~pos:(key_bytes + zeroed)
        ~len:(record_bytes - key_bytes - zeroed);
      b)

(* The big-endian 16-bit digit at [at]; callers keep [at + 1] in
   bounds. *)
let[@inline] digit flat at =
  (Char.code (Bytes.unsafe_get flat at) lsl 8)
  lor Char.code (Bytes.unsafe_get flat (at + 1))

(* Stable LSD radix sort of the record offsets by their 10-byte key:
   one counting pass per 16-bit digit, least significant first,
   ping-ponging between two offset arrays. *)
let key_order flat ~record_bytes =
  if record_bytes < key_bytes || Bytes.length flat mod record_bytes <> 0 then
    invalid_arg "Tencent_sort.key_order";
  let n = Bytes.length flat / record_bytes in
  let radix = 1 lsl 16 in
  let count = Array.make radix 0 in
  let src = ref (Array.init n (fun i -> i * record_bytes)) in
  let dst = ref (Array.make n 0) in
  for d = (key_bytes / 2) - 1 downto 0 do
    let src_a = !src and dst_a = !dst and at = 2 * d in
    Array.fill count 0 radix 0;
    for i = 0 to n - 1 do
      let k = digit flat (Array.unsafe_get src_a i + at) in
      Array.unsafe_set count k (Array.unsafe_get count k + 1)
    done;
    let sum = ref 0 in
    for k = 0 to radix - 1 do
      let c = Array.unsafe_get count k in
      Array.unsafe_set count k !sum;
      sum := !sum + c
    done;
    for i = 0 to n - 1 do
      let o = Array.unsafe_get src_a i in
      let k = digit flat (o + at) in
      let slot = Array.unsafe_get count k in
      Array.unsafe_set dst_a slot o;
      Array.unsafe_set count k (slot + 1)
    done;
    src := dst_a;
    dst := src_a
  done;
  !src

let range_of_record b ~sorters = Char.code (Bytes.get b 0) * sorters / 256

let temp_file w r = Printf.sprintf "/sort/tmp-p%d-r%d" w r
let out_file r = Printf.sprintf "/sort/out-%d" r

let join_workers n spawn_one =
  let live = ref n in
  let all_done = Ivar.create () in
  for i = 0 to n - 1 do
    spawn_one i (fun () ->
        decr live;
        if !live = 0 then Ivar.fill all_done ())
  done;
  Ivar.read all_done

let run ~(ops : Dfs_intf.ops) ~node ~records ?(record_bytes = 100)
    ?(partitions = 4) ?(sorters = 4) ~zero_ratio ~seed () =
  let rng = Rng.create seed in
  let input = gen_records ~records ~record_bytes ~zero_ratio rng in
  (match ops.Dfs_intf.file_size "/sort" with
  | Some _ -> ()
  | None -> ops.Dfs_intf.mkdir "/sort");
  let t0 = Engine.now () in
  (* ---- Phase 1: range partitioning ---- *)
  let per_worker = (records + partitions - 1) / partitions in
  join_workers partitions (fun w finished ->
      Engine.spawn ~name:(Printf.sprintf "tsort.part%d" w) (fun () ->
          let lo = w * per_worker in
          let hi = min records (lo + per_worker) in
          let buffers = Array.init sorters (fun _ -> Buffer.create 65536) in
          let fds =
            Array.init sorters (fun r -> ops.Dfs_intf.create (temp_file w r))
          in
          let flush r =
            if Buffer.length buffers.(r) > 0 then begin
              ops.Dfs_intf.append fds.(r)
                (Data.real (Buffer.to_bytes buffers.(r)));
              Buffer.clear buffers.(r)
            end
          in
          Hw.Cpu.run node.Hw.Node.host ((hi - lo) * partition_cpu_per_record);
          for i = lo to hi - 1 do
            let r = range_of_record input.(i) ~sorters in
            Buffer.add_bytes buffers.(r) input.(i);
            if Buffer.length buffers.(r) >= 1024 * 1024 then flush r
          done;
          Array.iteri (fun r _ -> flush r) buffers;
          Array.iter
            (fun fd ->
              ops.Dfs_intf.fsync fd;
              ops.Dfs_intf.close fd)
            fds;
          finished ()));
  let partition_time = Engine.now () - t0 in
  (* ---- Phase 2: merge + sort ---- *)
  let t1 = Engine.now () in
  let output_bytes = ref 0 in
  join_workers sorters (fun r finished ->
      Engine.spawn ~name:(Printf.sprintf "tsort.sort%d" r) (fun () ->
          (* Gather this range's records from every partition worker
             into one flat buffer; sorting then permutes an offset
             index instead of per-record byte copies, reading key
             digits in place — the merge phase allocates O(n) words
             and no key copies. *)
          let pieces = ref [] in
          let total = ref 0 in
          for w = 0 to partitions - 1 do
            let path = temp_file w r in
            match ops.Dfs_intf.file_size path with
            | Some size when size > 0 ->
                let fd = ops.Dfs_intf.open_file path in
                let data = ops.Dfs_intf.read fd ~pos:0 ~len:size in
                ops.Dfs_intf.close fd;
                let bytes = Data.to_bytes data in
                pieces := bytes :: !pieces;
                total := !total + Bytes.length bytes
            | _ -> ()
          done;
          let flat = Bytes.create !total in
          let off = ref !total in
          (* [pieces] is collected in reverse partition order; filling
             from the end restores it. *)
          List.iter
            (fun b ->
              off := !off - Bytes.length b;
              Bytes.blit b 0 flat !off (Bytes.length b))
            !pieces;
          let n = !total / record_bytes in
          (* Lexicographic 10-byte key compare, in place, for the
             sortedness check below. *)
          let cmp_at a b =
            let i = ref 0 and r = ref 0 in
            while !r = 0 && !i < key_bytes do
              r :=
                Char.code (Bytes.unsafe_get flat (a + !i))
                - Char.code (Bytes.unsafe_get flat (b + !i));
              incr i
            done;
            !r
          in
          (* Real sort, plus the modelled CPU cost of n log n compares. *)
          let idx = key_order flat ~record_bytes in
          let log2n =
            let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
            go 1 (max 2 n)
          in
          Hw.Cpu.run node.Hw.Node.host (n * log2n * sort_cpu_per_compare);
          (* Write the sorted output. *)
          let fd = ops.Dfs_intf.create (out_file r) in
          let out = Bytes.create (n * record_bytes) in
          Array.iteri
            (fun i src -> Bytes.blit flat src out (i * record_bytes) record_bytes)
            idx;
          ops.Dfs_intf.append fd (Data.real out);
          ops.Dfs_intf.fsync fd;
          ops.Dfs_intf.close fd;
          output_bytes := !output_bytes + (n * record_bytes);
          (* Verify sortedness. *)
          for i = 1 to n - 1 do
            if cmp_at idx.(i - 1) idx.(i) > 0 then
              failwith "tencent_sort: output not sorted"
          done;
          finished ()));
  let sort_time = Engine.now () - t1 in
  if !output_bytes <> records * record_bytes then
    failwith "tencent_sort: lost records";
  {
    elapsed = Engine.now () - t0;
    partition_time;
    sort_time;
    records;
    output_bytes = !output_bytes;
  }
