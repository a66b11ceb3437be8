(* Wall-clock perf-trajectory harness.

   Where bench/main.exe reports *virtual-time* results (what the
   simulated testbed measures), this executable reports *real* wall
   time: how fast the harness itself chews through the data plane.  It
   pits the current implementations against verbatim copies of their
   pre-rewrite counterparts (boxed-Int32 CRC, materializing concat,
   per-call-Hashtbl LZW, boxed event heap) so the speedup from the
   zero-copy rewrite is measured, not asserted, and writes the results
   as JSON for CI to archive and compare over time.

   Usage:
     dune exec bench/wallclock.exe                      # kernels + scaled experiments
     dune exec bench/wallclock.exe -- --smoke           # kernels only, small sizes
     dune exec bench/wallclock.exe -- --full            # kernels + paper-scale experiments
     dune exec bench/wallclock.exe -- -o FILE           # output path (default BENCH_wallclock.json) *)

(* ------------------------------------------------------------------ *)
(* Legacy reference implementations (pre-rewrite, kept verbatim)       *)
(* ------------------------------------------------------------------ *)

(* The old [Data.to_bytes]: synthetic content was generated one byte at
   a time ([synth_byte] recomputed the word per byte).  The legacy CRC
   and concat paths below materialize through this, exactly as the
   pre-rewrite code did. *)
let legacy_to_bytes d =
  let n = Storage.Data.length d in
  let out = Bytes.create n in
  let pos = ref 0 in
  Storage.Data.iter_slices d (fun s ->
      match s with
      | Storage.Data.Sreal r ->
          Bytes.blit r.buf r.pos out !pos r.len;
          pos := !pos + r.len
      | Storage.Data.Ssynth sy ->
          for i = 0 to sy.len - 1 do
            let p = sy.off + i in
            let w = Storage.Data.synth_word sy.seed (p / 8) in
            Bytes.unsafe_set out (!pos + i)
              (Char.chr
                 (Int64.to_int (Int64.shift_right_logical w (8 * (p mod 8)))
                 land 0xFF))
          done;
          pos := !pos + sy.len
      | Storage.Data.Szero z ->
          Bytes.fill out !pos z.len '\000';
          pos := !pos + z.len)
  ;
  out

module Legacy_crc = struct
  (* Int32-register table loop: every iteration allocates boxed Int32s. *)
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref (Int32.of_int n) in
           for _ = 0 to 7 do
             if Int32.logand !c 1l <> 0l then
               c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else c := Int32.shift_right_logical !c 1
           done;
           !c))

  let update crc buf ~pos ~len =
    let table = Lazy.force table in
    let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
    for i = pos to pos + len - 1 do
      let idx =
        Int32.to_int
          (Int32.logand
             (Int32.logxor !c (Int32.of_int (Char.code (Bytes.unsafe_get buf i))))
             0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
    done;
    Int32.logxor !c 0xFFFFFFFFl

  (* The old [Crc32.data]: walk in 8 KB chunks, materializing each. *)
  let data d =
    let n = Storage.Data.length d in
    let chunk = 8192 in
    let rec go crc pos =
      if pos >= n then crc
      else begin
        let len = min chunk (n - pos) in
        let b = legacy_to_bytes (Storage.Data.sub d ~pos ~len) in
        go (update crc b ~pos:0 ~len) (pos + len)
      end
    in
    go 0l 0
end

module Legacy_concat = struct
  (* The old [Data.concat] on mixed parts: materialize everything into
     one flat buffer. *)
  let concat parts =
    let parts = List.filter (fun p -> Storage.Data.length p > 0) parts in
    let total = List.fold_left (fun n p -> n + Storage.Data.length p) 0 parts in
    let out = Bytes.create total in
    let off = ref 0 in
    List.iter
      (fun p ->
        Bytes.blit (legacy_to_bytes p) 0 out !off (Storage.Data.length p);
        off := !off + Storage.Data.length p)
      parts;
    Storage.Data.real out
end

module Legacy_lzw = struct
  (* Per-call Hashtbl dictionary, Buffer-based bit packing. *)
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

module Legacy_heap = struct
  (* Boxed entry records, allocated on every push. *)
  type 'a entry = { key : int; seq : int; value : 'a }
  type 'a t = { mutable arr : 'a entry array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let is_empty h = h.len = 0
  let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

  let grow h entry =
    let cap = Array.length h.arr in
    if h.len = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let narr = Array.make ncap entry in
      Array.blit h.arr 0 narr 0 h.len;
      h.arr <- narr
    end

  let push h ~key ~seq value =
    let e = { key; seq; value } in
    grow h e;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.arr.(!i) <- e;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if less e h.arr.(parent) then begin
        h.arr.(!i) <- h.arr.(parent);
        h.arr.(parent) <- e;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        let last = h.arr.(h.len) in
        h.arr.(0) <- last;
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && less h.arr.(l) h.arr.(!smallest) then smallest := l;
          if r < h.len && less h.arr.(r) h.arr.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            let tmp = h.arr.(!i) in
            h.arr.(!i) <- h.arr.(!smallest);
            h.arr.(!smallest) <- tmp;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some (top.key, top.seq, top.value)
    end
end

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type kernel_result = {
  k_name : string;
  k_bytes : int; (* payload bytes processed per iteration; 0 = n/a *)
  new_s : float;
  legacy_s : float;
}

let speedup r = r.legacy_s /. r.new_s

(* Repeat [f] until it has consumed at least [min_time] seconds, then
   report seconds per iteration. *)
let time_fn ~min_time f =
  f (); (* warm-up: table/dict lazies, first allocation *)
  let t0 = Unix.gettimeofday () in
  let iters = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    f ();
    incr iters;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed /. float_of_int !iters

let run_kernel ~min_time ~name ~bytes ~new_fn ~legacy_fn =
  let new_s = time_fn ~min_time new_fn in
  let legacy_s = time_fn ~min_time legacy_fn in
  let r = { k_name = name; k_bytes = bytes; new_s; legacy_s } in
  Printf.printf "  %-28s new %10.1f us   legacy %10.1f us   speedup %6.2fx\n%!"
    name (new_s *. 1e6) (legacy_s *. 1e6) (speedup r);
  r

(* The payload shape the replication pipeline actually concatenates: a
   mix of real, synthetic and zero pieces. *)
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

let run_kernels ~smoke =
  Printf.printf "\n== data-path kernels (wall clock) ==\n%!";
  let min_time = if smoke then 0.1 else 0.4 in
  let piece = 16384 in
  let count = if smoke then 16 else 256 in
  let total = piece * count in
  let pieces = mixed_pieces ~piece ~count in
  let rope = Storage.Data.concat pieces in
  let sink = ref 0l in
  let concat_k =
    (* concat + one full traversal (blit into a reusable buffer) vs the
       old materializing concat, whose allocation+copy IS the traversal. *)
    let dst = Bytes.create total in
    run_kernel ~min_time ~name:"data.concat+traverse" ~bytes:total
      ~new_fn:(fun () ->
        let d = Storage.Data.concat pieces in
        Storage.Data.blit_to d ~src_pos:0 ~dst ~dst_pos:0
          ~len:(Storage.Data.length d))
      ~legacy_fn:(fun () -> ignore (Legacy_concat.concat pieces : Storage.Data.t))
  in
  let crc_k =
    run_kernel ~min_time ~name:"crc32.data" ~bytes:total
      ~new_fn:(fun () -> sink := Storage.Crc32.data rope)
      ~legacy_fn:(fun () -> sink := Legacy_crc.data rope)
  in
  let lzw_total = if smoke then 65536 else 1048576 in
  let lzw_k =
    (* What nicfs.compress_work does now (stream + count) vs what it
       did (materialize the rope, then Hashtbl-encode it). *)
    let lzw_rope =
      let rng = Sim.Rng.create 7 in
      Storage.Data.concat
        (List.init (lzw_total / 65536) (fun i ->
             if i mod 4 = 3 then Storage.Data.zero ~len:65536
             else
               Storage.Data.fill_ratio
                 (Storage.Data.zero ~len:65536)
                 ~zeros:0.6 ~rng))
    in
    run_kernel ~min_time ~name:"lzw.chunk-wire-size" ~bytes:lzw_total
      ~new_fn:(fun () ->
        ignore (Compress.Lzw.encoded_length_data lzw_rope : int))
      ~legacy_fn:(fun () ->
        ignore (Legacy_lzw.encode (legacy_to_bytes lzw_rope) : Bytes.t))
  in
  let heap_n = if smoke then 10_000 else 100_000 in
  let heap_k =
    run_kernel ~min_time ~name:"heap.push+pop" ~bytes:0
      ~new_fn:(fun () ->
        let h = Sim.Heap.create () in
        for i = 0 to heap_n - 1 do
          Sim.Heap.push h ~key:(i * 7919 mod heap_n) ~seq:i i
        done;
        while not (Sim.Heap.is_empty h) do
          ignore (Sim.Heap.pop h : (int * int * int) option)
        done)
      ~legacy_fn:(fun () ->
        let h = Legacy_heap.create () in
        for i = 0 to heap_n - 1 do
          Legacy_heap.push h ~key:(i * 7919 mod heap_n) ~seq:i i
        done;
        while not (Legacy_heap.is_empty h) do
          ignore (Legacy_heap.pop h : (int * int * int) option)
        done)
  in
  ignore !sink;
  let ks = [ concat_k; crc_k; lzw_k; heap_k ] in
  let data_path = [ concat_k; crc_k; lzw_k ] in
  let geomean =
    exp
      (List.fold_left (fun acc k -> acc +. log (speedup k)) 0.0 data_path
      /. float_of_int (List.length data_path))
  in
  Printf.printf "  data-path geometric-mean speedup: %.2fx\n%!" geomean;
  (ks, geomean)

(* ------------------------------------------------------------------ *)
(* Experiment wall-clock runs                                          *)
(* ------------------------------------------------------------------ *)

type exp_result = {
  e_name : string;
  e_scale : string;
  e_domains : int;
  wall_s : float;
  events : int;
  minor_words : float;
  major_words : float;
  major_collections : int;
  (* events/s of every probe run, per domain count, in run order (empty
     when the experiment was not probed). *)
  mutable eps_runs : (int * float list) list;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* events/s per domain count: the median of the probe runs, or the
   headline run alone when the experiment was not probed. *)
let eps_by_domains e =
  match e.eps_runs with
  | [] -> [ (e.e_domains, float_of_int e.events /. e.wall_s) ]
  | runs -> List.map (fun (d, xs) -> (d, median xs)) runs

(* Multi-domain speedup: best median probed events/s over the
   single-domain median.  On a single-core machine this hovers around
   (or below) 1.0 — domains add GC synchronization and no parallelism —
   which is why the bench gate carries a core-count-aware tolerance. *)
let speedup_of e =
  let eps = eps_by_domains e in
  match (List.assoc_opt 1 eps, List.filter (fun (d, _) -> d > 1) eps) with
  | None, _ | _, [] -> 1.0 (* no probe pair: neutral *)
  | Some base, multi ->
      List.fold_left (fun acc (_, v) -> max acc (v /. base)) 0.0 multi

(* Per-event-kind profile: where the wall time of an experiment goes,
   bucketed by event name with instance digits stripped.  [profile]
   perturbs the measured wall time (two clock reads per event), so the
   headline wall_s/events_per_s numbers are taken from unprofiled runs;
   the profile is printed for the eye and future perf PRs. *)
let print_profile () =
  let rows = Sim.Engine.profile_snapshot () in
  let total = List.fold_left (fun a (_, _, s, _) -> a +. s) 0.0 rows in
  let top = List.filteri (fun i _ -> i < 10) rows in
  Printf.printf "  %-36s %12s %10s %8s %10s %10s\n" "event kind" "events"
    "secs" "share" "us/event" "words/ev";
  List.iter
    (fun (kind, count, secs, words) ->
      Printf.printf "  %-36s %12d %10.2f %7.1f%% %10.2f %10.0f\n" kind count
        secs
        (100.0 *. secs /. total)
        (secs /. float_of_int count *. 1e6)
        (words /. float_of_int count))
    top;
  Printf.printf "  (%d kinds, %.2fs total in events)\n%!" (List.length rows)
    total

let run_experiment ?(profile = false) ?(domains = 1) ~name ~scale run =
  Printf.printf "\n== experiment %s [%s, domains=%d] ==\n%!" name
    scale.Common.label domains;
  Common.current_scale := scale;
  Common.domains := domains;
  let ev0 = Sim.Engine.global_events_executed () in
  let gc0 = Gc.quick_stat () in
  if profile then begin
    Sim.Engine.profile_set_clock Unix.gettimeofday;
    Sim.Engine.profile_reset ();
    Sim.Engine.profile_enable true
  end;
  let t0 = Unix.gettimeofday () in
  run ();
  let wall_s = Unix.gettimeofday () -. t0 in
  if profile then begin
    Sim.Engine.profile_enable false;
    print_profile ()
  end;
  let gc1 = Gc.quick_stat () in
  let events = Sim.Engine.global_events_executed () - ev0 in
  Printf.printf
    "[%s: %.1fs wall, %d events, %.0f events/s, %.1f MW minor alloc]\n%!" name
    wall_s events
    (float_of_int events /. wall_s)
    ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
  {
    e_name = name;
    e_scale = scale.Common.label;
    e_domains = domains;
    wall_s;
    events;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    eps_runs = [];
  }

(* Re-run [run] at each domain count for [probe_rounds] rounds, recording
   events/s.  Rounds alternate the order (1,2,4 then 4,2,1 ...) so
   drift in the machine's load does not favour one side; the speedup
   is taken between per-count medians.  Simulated results are
   identical at every domain count (a {!Sim.Batch} job depends only on
   itself); only wall clock varies. *)
let probe_rounds = 5

let probe_domains ~name ~scale run e counts =
  let runs = Hashtbl.create 4 in
  for r = 0 to probe_rounds - 1 do
    List.iter
      (fun d ->
        let p = run_experiment ~domains:d ~name ~scale run in
        Hashtbl.replace runs d
          ((float_of_int p.events /. p.wall_s)
          :: Option.value ~default:[] (Hashtbl.find_opt runs d)))
      (if r mod 2 = 0 then counts else List.rev counts)
  done;
  e.eps_runs <- List.map (fun d -> (d, List.rev (Hashtbl.find runs d))) counts;
  Common.domains := 1

(* ------------------------------------------------------------------ *)
(* Rack-scale sweep: N-node racks of replica groups, cohort clients    *)
(* ------------------------------------------------------------------ *)

(* Throughput vs nodes vs cohort size vs domains, on batched
   {!Linefs.Rack} runs (one engine per replica group, spread over the
   domains).  Simulated results must be identical at every domain
   count. *)

type sweep_probe = {
  s_nodes : int;
  s_groups : int;
  s_cohort : int;
  s_domains : int;
  s_tput : float;
  s_wire : int;
  s_events : int;
  s_wall : float;
}

let sweep_group_bytes = 128 * 1024 * 1024

let run_rack_probe ~nodes ~group_size ~cohort ~domains () =
  Common.current_scale := Common.scaled;
  let t0 = Unix.gettimeofday () in
  let results =
    Workloads.Rack_cohort.run ~domains ~params:(Common.params ()) ~nodes
      ~group_size ~cohort ~group_bytes:sweep_group_bytes ~io_bytes:(16 * 1024)
      ()
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let slowest =
    Array.fold_left
      (fun acc (r, _) -> max acc r.Workloads.Rack_cohort.elapsed)
      0 results
  in
  let groups = Array.length results in
  {
    s_nodes = nodes;
    s_groups = groups;
    s_cohort = cohort;
    s_domains = domains;
    s_tput = Common.gbps (sweep_group_bytes * groups) slowest;
    s_wire =
      sum (fun (r, _) ->
          Linefs.Deployment.replication_wire_bytes
            r.Workloads.Rack_cohort.deployment);
    s_events = sum (fun (_, eng) -> Sim.Engine.events_executed eng);
    s_wall = wall_s;
  }

(* One sweep entry: a (nodes, group_size, cohort) configuration probed
   at each domain count, byte-identity asserted across them. *)
let run_scale_sweep configs counts =
  Printf.printf
    "\n== rack-scale sweep: batched N-node racks, cohort clients ==\n%!";
  List.map
    (fun (nodes, group_size, cohort) ->
      let probes =
        List.map
          (fun d -> run_rack_probe ~nodes ~group_size ~cohort ~domains:d ())
          counts
      in
      List.iter
        (fun p ->
          Printf.printf
            "  nodes=%d groups=%d cohort=%d domains=%d: %.2f GB/s simulated, \
             %d events, %.2fs wall, %.0f events/s\n%!"
            p.s_nodes p.s_groups p.s_cohort p.s_domains p.s_tput p.s_events
            p.s_wall
            (float_of_int p.s_events /. p.s_wall))
        probes;
      (match probes with
      | base :: rest ->
          List.iter
            (fun p ->
              if
                p.s_tput <> base.s_tput || p.s_wire <> base.s_wire
                || p.s_events <> base.s_events
              then begin
                Printf.printf
                  "FAIL: rack sweep (%d nodes, cohort %d) diverged at \
                   domains=%d vs %d: tput %.9f/%.9f wire %d/%d events %d/%d\n%!"
                  nodes cohort p.s_domains base.s_domains p.s_tput base.s_tput
                  p.s_wire base.s_wire p.s_events base.s_events;
                exit 1
              end)
            rest
      | [] -> ());
      probes)
    configs

let sweep_speedup probes_by_config =
  List.fold_left
    (fun acc probes ->
      match probes with
      | base :: rest when base.s_domains = 1 ->
          let base_eps = float_of_int base.s_events /. base.s_wall in
          List.fold_left
            (fun acc p ->
              max acc (float_of_int p.s_events /. p.s_wall /. base_eps))
            acc rest
      | _ -> acc)
    0.0 probes_by_config

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

(* Every floor the harness (or CI) enforces is recorded in the JSON:
   name, measured value, the floor it was held to, whether that floor
   was relaxed for the machine (core count), and whether the gate was
   evaluated at all in this run's mode.  CI refuses committed JSON
   whose gates were skipped or failed, so a smoke-mode or
   gates-sidestepped run can't masquerade as a real benchmark run. *)

type gate = {
  g_name : string;
  g_evaluated : bool;
  g_value : float;
  g_floor : float;
  g_relaxed : bool;
  g_note : string;
}

let gate_pass g = g.g_value >= g.g_floor

let skipped_gate name note =
  {
    g_name = name;
    g_evaluated = false;
    g_value = 0.0;
    g_floor = 0.0;
    g_relaxed = false;
    g_note = note;
  }

let report_gates gates =
  Printf.printf "\n== gates ==\n%!";
  let failed = ref false in
  List.iter
    (fun g ->
      if not g.g_evaluated then
        Printf.printf "  %-26s SKIPPED (%s)\n%!" g.g_name g.g_note
      else begin
        let ok = gate_pass g in
        if not ok then failed := true;
        Printf.printf "  %-26s %6.2fx (floor %.2fx%s) %s\n%!" g.g_name g.g_value
          g.g_floor
          (if g.g_relaxed then ", relaxed: " ^ g.g_note else "")
          (if ok then "ok" else "FAIL")
      end)
    gates;
  not !failed

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled; no deps)                                  *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~path ~mode ~domains ~cores ~kernels ~geomean ~experiments
    ~sweep ~gates =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string b (Printf.sprintf "  \"domains\": %d,\n" domains);
  Buffer.add_string b (Printf.sprintf "  \"cores\": %d,\n" cores);
  Buffer.add_string b
    (Printf.sprintf "  \"data_path_geomean_speedup\": %.3f,\n" geomean);
  Buffer.add_string b "  \"kernels\": [\n";
  List.iteri
    (fun i k ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"bytes_per_iter\": %d, \"new_us\": %.2f, \
            \"legacy_us\": %.2f, \"speedup\": %.3f}%s\n"
           (json_escape k.k_name) k.k_bytes (k.new_s *. 1e6)
           (k.legacy_s *. 1e6) (speedup k)
           (if i = List.length kernels - 1 then "" else ","))
      )
    kernels;
  Buffer.add_string b "  ],\n";
  (match sweep with
  | [] -> ()
  | sweep ->
      Buffer.add_string b "  \"scale_sweep\": [\n";
      let flat = List.concat sweep in
      List.iteri
        (fun i p ->
          Buffer.add_string b
            (Printf.sprintf
               "    {\"nodes\": %d, \"groups\": %d, \"cohort\": %d, \
                \"domains\": %d, \"tput_gbps\": %.3f, \"wire_bytes\": %d, \
                \"events\": %d, \"wall_s\": %.2f, \"events_per_s\": %.0f}%s\n"
               p.s_nodes p.s_groups p.s_cohort p.s_domains p.s_tput p.s_wire
               p.s_events p.s_wall
               (float_of_int p.s_events /. p.s_wall)
               (if i = List.length flat - 1 then "" else ","))
          )
        flat;
      Buffer.add_string b "  ],\n";
      Buffer.add_string b
        (Printf.sprintf "  \"scale_sweep_speedup\": %.3f,\n"
           (sweep_speedup sweep)));
  Buffer.add_string b "  \"gates\": {\n";
  Buffer.add_string b (Printf.sprintf "    \"cores\": %d,\n" cores);
  Buffer.add_string b (Printf.sprintf "    \"mode\": \"%s\",\n" mode);
  Buffer.add_string b "    \"results\": [\n";
  List.iteri
    (fun i g ->
      (if not g.g_evaluated then
         Buffer.add_string b
           (Printf.sprintf
              "      {\"name\": \"%s\", \"evaluated\": false, \"note\": \
               \"%s\"}%s\n"
              (json_escape g.g_name) (json_escape g.g_note)
              (if i = List.length gates - 1 then "" else ","))
       else
         Buffer.add_string b
           (Printf.sprintf
              "      {\"name\": \"%s\", \"evaluated\": true, \"value\": %.3f, \
               \"floor\": %.3f, \"relaxed\": %b, \"note\": \"%s\", \"pass\": \
               %b}%s\n"
              (json_escape g.g_name) g.g_value g.g_floor g.g_relaxed
              (json_escape g.g_note) (gate_pass g)
              (if i = List.length gates - 1 then "" else ","))))
    gates;
  Buffer.add_string b "    ]\n";
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"experiments\": [\n";
  List.iteri
    (fun i e ->
      let eps_json =
        String.concat ", "
          (List.map
             (fun (d, eps) -> Printf.sprintf "\"%d\": %.0f" d eps)
             (eps_by_domains e))
      in
      let runs_json =
        String.concat ", "
          (List.map
             (fun (d, xs) ->
               Printf.sprintf "\"%d\": [%s]" d
                 (String.concat ", "
                    (List.map (Printf.sprintf "%.0f") xs)))
             e.eps_runs)
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"scale\": \"%s\", \"domains\": %d, \
            \"wall_s\": %.2f, \"events\": %d, \"events_per_s\": %.0f, \
            \"events_per_s_by_domains\": {%s}, \
            \"events_per_s_runs_by_domains\": {%s}, \
            \"multi_domain_speedup\": %.3f, \"gc\": \
            {\"minor_words\": %.0f, \"major_words\": %.0f, \
            \"major_collections\": %d}}%s\n"
           (json_escape e.e_name) (json_escape e.e_scale) e.e_domains e.wall_s
           e.events
           (float_of_int e.events /. e.wall_s)
           eps_json runs_json (speedup_of e) e.minor_words e.major_words
           e.major_collections
           (if i = List.length experiments - 1 then "" else ","))
      )
    experiments;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let full = List.mem "--full" args in
  let profile = List.mem "--profile" args in
  let no_probe = List.mem "--no-domain-probe" args in
  let rec flag_val name = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> flag_val name rest
    | [] -> None
  in
  let path =
    match flag_val "-o" args with Some p -> p | None -> "BENCH_wallclock.json"
  in
  let domains =
    match flag_val "--domains" args with
    | Some v -> max 1 (int_of_string v)
    | None -> 1
  in
  let mode = if smoke then "smoke" else if full then "full" else "default" in
  Printf.printf "wall-clock harness, mode=%s, domains=%d\n%!" mode domains;
  let kernels, geomean = run_kernels ~smoke in
  let experiments =
    if smoke then []
    else begin
      (* Explicit sequencing: list elements would evaluate in
         unspecified order. *)
      let s4 =
        run_experiment ~profile ~domains ~name:"fig4" ~scale:Common.scaled
          Exp_fig4.run
      in
      let s9 =
        run_experiment ~profile ~domains ~name:"fig9" ~scale:Common.scaled
          Exp_fig9.run
      in
      (* Scaled experiments also probe events/s at domains 1, 2, 4 so
         the JSON tracks the multi-domain trajectory; full-scale runs
         are too expensive to repeat. *)
      if not no_probe then begin
        probe_domains ~name:"fig4" ~scale:Common.scaled Exp_fig4.run s4
          [ 1; 2; 4 ];
        probe_domains ~name:"fig9" ~scale:Common.scaled Exp_fig9.run s9
          [ 1; 2; 4 ]
      end;
      let at_full =
        if full then begin
          let f4 =
            run_experiment ~profile ~domains ~name:"fig4" ~scale:Common.full
              Exp_fig4.run
          in
          let f9 =
            run_experiment ~profile ~domains ~name:"fig9" ~scale:Common.full
              Exp_fig9.run
          in
          [ f4; f9 ]
        end
        else []
      in
      [ s4; s9 ] @ at_full
    end
  in
  let sweep =
    if smoke then []
    else
      run_scale_sweep
        [ (8, 4, 2); (8, 4, 8); (16, 4, 4); (24, 4, 4) ]
        [ 1; 4 ]
  in
  let cores = Domain.recommended_domain_count () in
  let gates =
    [
      {
        g_name = "data_path_geomean";
        g_evaluated = true;
        g_value = geomean;
        g_floor = 3.0;
        g_relaxed = false;
        g_note = "";
      };
      (match
         List.find_opt
           (fun e -> e.e_name = "fig4" && List.length e.eps_runs > 1)
           experiments
       with
      | None -> skipped_gate "multi_domain_fig4" "no scaled fig4 domain probe"
      | Some e ->
          {
            g_name = "multi_domain_fig4";
            g_evaluated = true;
            g_value = speedup_of e;
            g_floor = (if cores > 1 then 1.10 else 0.20);
            g_relaxed = cores <= 1;
            g_note =
              (if cores <= 1 then
                 "single core: domains add GC barriers, no parallelism"
               else "");
          });
      (match sweep with
      | [] -> skipped_gate "scale_sweep_speedup" "no rack sweep in this mode"
      | sweep ->
          {
            g_name = "scale_sweep_speedup";
            g_evaluated = true;
            g_value = sweep_speedup sweep;
            g_floor = (if cores >= 4 then 1.50 else 0.90);
            g_relaxed = cores < 4;
            g_note = (if cores < 4 then "fewer than 4 cores" else "");
          });
    ]
  in
  write_json ~path ~mode ~domains ~cores ~kernels ~geomean ~experiments ~sweep
    ~gates;
  if not (report_gates gates) then begin
    Printf.printf "FAIL: a bench gate fell below its floor\n%!";
    exit 1
  end
