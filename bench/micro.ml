(* Bechamel micro-benchmarks of the core data structures and codecs —
   the real-CPU building blocks underneath the simulated datapath. *)

open Bechamel
open Toolkit

(* The LibFS append path's index update: 16,384 appends of 16 KiB, one
   file's worth of a sequential writer, each at the map's end. *)
let extent_map_append =
  let data = Storage.Data.synthetic ~seed:1 ~len:16384 in
  Test.make ~name:"extent_map.append-16k"
    (Staged.stage (fun () ->
         let m = Storage.Extent_map.create () in
         for i = 0 to 16_383 do
           Storage.Extent_map.insert m ~at:(i * 16384) data i
         done))

(* The array map's worst case: a write into the middle of a 16k-segment
   map moves every segment after it.  Each run splits the middle
   segment with a 1 KiB overwrite (three segments for one) and then
   writes the segment back whole (one for three): two blits of ~8k
   slots. *)
let extent_map_overwrite_mid =
  let data = Storage.Data.synthetic ~seed:1 ~len:16384 in
  let m = Storage.Extent_map.create () in
  let () =
    for i = 0 to 16_383 do
      Storage.Extent_map.insert m ~at:(i * 16384) data i
    done
  in
  let mid = 8192 * 16384 in
  let patch = Storage.Data.zero ~len:1024 in
  Test.make ~name:"extent_map.overwrite-mid-16k"
    (Staged.stage (fun () ->
         Storage.Extent_map.insert m ~at:(mid + 4096) patch 0;
         Storage.Extent_map.insert m ~at:mid data 8192))

let extent_map_lookup =
  let m = Storage.Extent_map.create () in
  let () =
    for i = 0 to 9999 do
      Storage.Extent_map.insert m ~at:(i * 64) (Storage.Data.zero ~len:64) i
    done
  in
  Test.make ~name:"extent_map.find-10k"
    (Staged.stage (fun () ->
         for i = 0 to 99 do
           ignore (Storage.Extent_map.find m (i * 640) : _ option)
         done))

let crc32_4k =
  let buf = Bytes.create 4096 in
  Test.make ~name:"crc32.4KiB"
    (Staged.stage (fun () -> ignore (Storage.Crc32.bytes buf : int32)))

let lzw_encode_64k =
  let rng = Sim.Rng.create 3 in
  let data =
    Storage.Data.to_bytes
      (Storage.Data.fill_ratio (Storage.Data.zero ~len:65536) ~zeros:0.6 ~rng)
  in
  Test.make ~name:"lzw.encode-64KiB-60%zero"
    (Staged.stage (fun () -> ignore (Compress.Lzw.encode data : Bytes.t)))

let oplog_roundtrip =
  let entry =
    Storage.Oplog.make ~seq:1 ~client:0
      (Storage.Oplog.Write
         { inum = 2; offset = 0; data = Storage.Data.real (Bytes.create 4096) })
  in
  Test.make ~name:"oplog.serialize+deserialize-4KiB"
    (Staged.stage (fun () ->
         match Storage.Oplog.deserialize (Storage.Oplog.serialize entry) with
         | Ok _ -> ()
         | Error e -> failwith e))

let oplog_make_synth =
  let data = Storage.Data.synthetic ~seed:1 ~len:16384 in
  Test.make ~name:"oplog.make-synth-16KiB"
    (Staged.stage (fun () ->
         ignore
           (Storage.Oplog.make ~seq:1 ~client:0
              (Storage.Oplog.Write { inum = 2; offset = 0; data })
             : Storage.Oplog.entry)))

let sim_events =
  Test.make ~name:"sim.10k-events"
    (Staged.stage (fun () ->
         let eng = Sim.Engine.create () in
         Sim.Engine.spawn_root eng (fun () ->
             for _ = 1 to 10_000 do
               Sim.Engine.sleep 10
             done);
         Sim.Engine.run eng))

(* -- data-plane kernels (the hot paths of the zero-copy rewrite) ----- *)

(* A replication-chunk-shaped payload: a mix of real, synthetic and
   zero pieces, concatenated into one rope. *)
let mixed_pieces ~piece ~count =
  List.init count (fun i ->
      match i mod 3 with
      | 0 ->
          let b = Bytes.create piece in
          for j = 0 to piece - 1 do
            Bytes.unsafe_set b j (Char.unsafe_chr ((i + (j * 7)) land 0xFF))
          done;
          Storage.Data.real b
      | 1 -> Storage.Data.synthetic ~seed:(i + 1) ~len:piece
      | _ -> Storage.Data.zero ~len:piece)

let data_concat_traverse =
  let pieces = mixed_pieces ~piece:16384 ~count:64 in
  let dst = Bytes.create (16384 * 64) in
  Test.make ~name:"data.concat+blit-1MiB-64pieces"
    (Staged.stage (fun () ->
         let d = Storage.Data.concat pieces in
         Storage.Data.blit_to d ~src_pos:0 ~dst ~dst_pos:0
           ~len:(Storage.Data.length d)))

let crc32_rope_1m =
  let d = Storage.Data.concat (mixed_pieces ~piece:16384 ~count:64) in
  Test.make ~name:"crc32.data-1MiB-rope"
    (Staged.stage (fun () -> ignore (Storage.Crc32.data d : int32)))

let lzw_encode_data_256k =
  let rng = Sim.Rng.create 7 in
  let d =
    Storage.Data.concat
      (List.init 4 (fun _ ->
           Storage.Data.fill_ratio
             (Storage.Data.zero ~len:65536)
             ~zeros:0.6 ~rng))
  in
  Test.make ~name:"lzw.encode_data-256KiB-rope"
    (Staged.stage (fun () ->
         ignore (Compress.Lzw.encoded_length_data d : int)))

let lzw_decode_256k =
  let rng = Sim.Rng.create 9 in
  let enc =
    Compress.Lzw.encode
      (Storage.Data.to_bytes
         (Storage.Data.fill_ratio
            (Storage.Data.zero ~len:262144)
            ~zeros:0.6 ~rng))
  in
  Test.make ~name:"lzw.decode-256KiB"
    (Staged.stage (fun () -> ignore (Compress.Lzw.decode enc : Bytes.t)))

let rng_int_1m =
  let r = Sim.Rng.create 5 in
  Test.make ~name:"rng.int-1M"
    (Staged.stage (fun () ->
         for _ = 1 to 1_000_000 do
           ignore (Sys.opaque_identity (Sim.Rng.int r 1000))
         done))

(* Tencent Sort's merge-phase kernel: one sorter's share of a 200 k
   record run, ordered by key. *)
let tsort_key_sort_50k =
  let flat = Bytes.create (50_000 * 100) in
  let () = Sim.Rng.fill_bytes (Sim.Rng.create 11) flat in
  Test.make ~name:"tsort.key-sort-50k"
    (Staged.stage (fun () ->
         ignore
           (Workloads.Tencent_sort.key_order flat ~record_bytes:100
             : int array)))

let heap_churn =
  Test.make ~name:"heap.push+pop-10k"
    (Staged.stage (fun () ->
         let h = Sim.Heap.create () in
         for i = 0 to 9_999 do
           Sim.Heap.push h ~key:(i * 7919 mod 10_000) ~seq:i i
         done;
         while not (Sim.Heap.is_empty h) do
           ignore (Sim.Heap.pop h : (int * int * int) option)
         done))

(* Log reclaim after one write, in a client that has already written
   and reclaimed 2,000 files: the cost of what publication frees, which
   must not grow with the files the client has touched before.  The
   backend publishes nothing itself; each run writes 64 B and reclaims
   it, as the NICFS publish sink does.  Built on demand: the setup
   runs a simulation, which other subcommands must not see. *)
let libfs_reclaim_2k () =
  let module L = Linefs.Libfs in
  let eng = Sim.Engine.create () in
  let node =
    Hw.Node.create Hw.Config.testbed_25gbe
      ~switch:(Hw.Netlink.create_switch ()) ~id:0
  in
  let backend =
    {
      L.sysname = "host";
      lease = (fun _ _ -> ());
      open_check = (fun _ _ _ -> ());
      log_full = (fun _ -> failwith "log full");
      appended = (fun _ _ -> ());
      fsync = (fun _ _ -> ());
    }
  in
  let c =
    L.create ~params:Linefs.Params.default ~node ~backend
      ~fs:(Storage.Fs_state.create ()) ~id:1 ()
  in
  let ops = L.ops c in
  let data = Storage.Data.synthetic ~seed:1 ~len:64 in
  let fd = ref (-1) in
  Sim.Engine.spawn_root eng (fun () ->
      for i = 0 to 1999 do
        let f = ops.Linefs.Dfs_intf.create (Printf.sprintf "/f%d" i) in
        ops.Linefs.Dfs_intf.append f data;
        fd := f
      done;
      L.reclaim c ~upto_seq:(L.last_seq c));
  Sim.Engine.run eng;
  Test.make ~name:"libfs.reclaim-2k-inodes"
    (Staged.stage (fun () ->
         Sim.Engine.spawn_root eng (fun () ->
             ops.Linefs.Dfs_intf.write !fd ~pos:0 data;
             L.reclaim c ~upto_seq:(L.last_seq c));
         Sim.Engine.run eng))

let all_tests () =
  [
    extent_map_append;
    extent_map_overwrite_mid;
    extent_map_lookup;
    crc32_4k;
    lzw_encode_64k;
    oplog_roundtrip;
    oplog_make_synth;
    sim_events;
    data_concat_traverse;
    crc32_rope_1m;
    lzw_encode_data_256k;
    lzw_decode_256k;
    rng_int_1m;
    tsort_key_sort_50k;
    heap_churn;
    libfs_reclaim_2k ();
  ]

let run () =
  Common.heading "Bechamel micro-benchmarks (real CPU time of substrates)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results' =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-40s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n%!" name)
        results')
    (all_tests ())
