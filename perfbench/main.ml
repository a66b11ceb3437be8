(* The benchmark program.  [perfbench/run.py] builds this and runs

     main.exe --workload W --seed N --seconds S --trace 0|1

   It repeats one workload (fresh deployment each time) until S
   seconds have passed, checks every repetition's output and that all
   repetitions agree exactly on their simulated results, and prints the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
   as the last line of standard output, in one JSON object. *)

open Sim
open Perfbench
module S = Scenarios

(* ---- small helpers ---------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let x = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float x in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let fdiv a b = if b = 0.0 then 0.0 else a /. b
let secs t = Time.to_sec_f t
let pct s p = Stats.Series.percentile s p

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* ---- host description, for the run record ------------------------- *)

let cpuinfo () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      let lines = String.split_on_char '\n' text in
      let field l =
        match String.index_opt l ':' with
        | Some i -> Some (String.trim (String.sub l 0 i), String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> None
      in
      let fields = List.filter_map field lines in
      let n = List.length (List.filter (fun (k, _) -> k = "processor") fields) in
      let model = Option.value (List.assoc_opt "model name" fields) ~default:"unknown" in
      ((if n > 0 then n else Domain.recommended_domain_count ()), model)
  | exception Sys_error _ -> (Domain.recommended_domain_count (), "unknown")

let gc_settings () =
  let g = Gc.get () in
  json_obj
    [
      ("minor_heap_words", string_of_int g.Gc.minor_heap_size);
      ("space_overhead", string_of_int g.Gc.space_overhead);
      ("max_overhead", string_of_int g.Gc.max_overhead);
      ("window_size", string_of_int g.Gc.window_size);
      ("custom_major_ratio", string_of_int g.Gc.custom_major_ratio);
    ]

(* A second seed, derived from the run's, on which a claimed gain must
   also hold (it is never the seed the claim was developed on). *)
let heldout_seed seed = (seed * 7) + 1_000_003

(* ---- per-repetition derived values ---------------------------------- *)

let phase_sim r =
  let s0, s1 = r.S.phase in
  secs (s1.S.sim - s0.S.sim)

let phase_events r =
  let s0, s1 = r.S.phase in
  s1.S.events - s0.S.events

(* Host-measured metrics vary from run to run (GC counts also differ
   between traced and untraced repetitions); every other metric is
   simulated and must repeat exactly for one seed. *)
let host_measured (n, u, _) =
  List.mem u [ "s"; "ns"; "MB"; "MB/s" ] || String.starts_with ~prefix:"gc." n

let signature r metrics =
  let f = r.S.fingerprint in
  String.concat " "
    (Printf.sprintf "%d %d %d %d %d" f.S.wire_bytes f.S.events f.S.sim_elapsed
       r.S.checks_run r.S.checks_failed
    :: List.filter_map
         (fun ((_, _, v) as m) ->
           if host_measured m then None else Some (Printf.sprintf "%.17g" v))
         metrics)

let user_bytes r = float_of_int (Opsmeter.bytes_written r.S.meter + Opsmeter.bytes_read r.S.meter)

(* The end-to-end values of one repetition ([ok_frac] is added over
   the whole run). *)
let end_to_end r =
  let s0, s1 = r.S.phase in
  let sim = phase_sim r in
  let m = r.S.meter in
  let lat = Opsmeter.latency_all m in
  let _, tail = Opsmeter.tail lat in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    ("host_s", "s", r.S.host_s);
    ("setup_s", "s", r.S.setup_s);
    ("peak_heap_mb", "MB", float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6);
    ("sim_ops_per_s", "1/s", fdiv (float_of_int (Opsmeter.ops_ok m)) sim);
    ("sim_user_gbps", "GB/s", fdiv (user_bytes r) sim /. 1e9);
    ("sim_op_p50_us", "us", pct lat 50.0);
    ("sim_op_tail_us", "us", tail);
    ("sim_host_dfs_cores", "cores", fdiv (secs (s1.S.dfs_cpu - s0.S.dfs_cpu)) sim);
    ( "sim_wire_per_user_byte",
      "B/B",
      fdiv
        (float_of_int (r.S.final.S.wire - s0.S.wire))
        (float_of_int (Opsmeter.bytes_written m)) );
  ]

let counter_names =
  [
    "net.corrupt-frame";
    "net.retransmit";
    "rpc.dedup-hit";
    "rpc.reply-replayed";
    "storage.bitrot-repair";
    "storage.scrub-refetch";
    "storage.scrub-serve";
    "storage.torn-tail";
  ]

let stage_names = [ "fetching"; "validation"; "publication"; "compression"; "transfer" ]
let latency_ops = Opsmeter.[ Write; Append; Read; Fsync; Create; Open; Unlink ]

(* Per-client stage series of the primary: p50 is the median of the
   clients' medians, p99 the worst client's. *)
let stage_pcts r stage =
  let per =
    List.filter_map (fun l -> List.assoc_opt stage l) r.S.stages
    |> List.filter (fun s -> Stats.Series.count s > 0)
  in
  ( median (List.map (fun s -> pct s 50.0) per),
    List.fold_left (fun a s -> Float.max a (pct s 99.0)) 0.0 per )

let untraced_layers r =
  let s0, s1 = r.S.phase in
  let fin = r.S.final in
  let sim = phase_sim r in
  let m = r.S.meter in
  let gc_delta f = f s1.S.gc -. f s0.S.gc in
  let host_cores, nic_cores = r.S.cores in
  let d f = f s1.S.hw - f s0.S.hw in
  let per_node =
    List.concat_map
      (fun n ->
        let busy a = float_of_int (d (fun h -> (a h).(n))) /. 1e9 in
        [
          (Printf.sprintf "hw.host_cpu_util.%d" n, "frac",
            fdiv (busy (fun h -> h.S.host_busy)) (sim *. float_of_int host_cores.(n)));
          (Printf.sprintf "hw.nic_cpu_util.%d" n, "frac",
            fdiv (busy (fun h -> h.S.nic_busy)) (sim *. float_of_int nic_cores.(n)));
          (Printf.sprintf "hw.pcie_util.%d" n, "frac", fdiv (busy (fun h -> h.S.pcie_busy)) sim);
          (Printf.sprintf "hw.pm_write_bytes.%d" n, "B",
            float_of_int (d (fun h -> h.S.pm_written.(n))));
          (Printf.sprintf "hw.net_tx_util.%d" n, "frac", fdiv (busy (fun h -> h.S.tx_busy)) sim);
        ])
      [ 0; 1; 2 ]
  in
  [
    ("sim.events", "count", float_of_int (phase_events r));
    ("sim.host_ns_per_event", "ns", fdiv r.S.host_s (float_of_int (phase_events r)) *. 1e9);
    ("gc.minor_mw", "Mwords", gc_delta (fun g -> g.Gc.minor_words) /. 1e6);
    ("gc.promoted_mw", "Mwords", gc_delta (fun g -> g.Gc.promoted_words) /. 1e6);
    ("gc.major_collections", "count", gc_delta (fun g -> float_of_int g.Gc.major_collections));
  ]
  @ List.map
      (fun op ->
        ("libfs.ops." ^ Opsmeter.op_name op, "count", float_of_int (Opsmeter.count m op)))
      Opsmeter.all_ops
  @ List.concat_map
      (fun op ->
        let s = Opsmeter.latency m op in
        let n = "libfs." ^ Opsmeter.op_name op in
        [ (n ^ ".p50_us", "us", pct s 50.0); (n ^ ".p99_us", "us", pct s 99.0) ])
      latency_ops
  @ [
      ("libfs.lease_hits", "count", float_of_int r.S.lease_hits);
      ("libfs.lease_misses", "count", float_of_int r.S.lease_misses);
      ("libfs.bytes_written", "B", float_of_int (Opsmeter.bytes_written m));
      ("libfs.bytes_read", "B", float_of_int (Opsmeter.bytes_read m));
    ]
  @ List.concat_map
      (fun st ->
        let p50, p99 = stage_pcts r st in
        [ ("nicfs." ^ st ^ ".p50_us", "us", p50); ("nicfs." ^ st ^ ".p99_us", "us", p99) ])
      stage_names
  @ [
      ("nicfs.ack_rtt_p50_us", "us", pct r.S.ack_rtt 50.0);
      ("nicfs.ack_rtt_p99_us", "us", pct r.S.ack_rtt 99.0);
      ("nicfs.wire_bytes", "B", float_of_int (fin.S.wire - s0.S.wire));
      ("nicfs.published_bytes", "B", float_of_int (fin.S.published - s0.S.published));
      ("kworker.bytes_copied", "B", float_of_int (fin.S.kw_copied - s0.S.kw_copied));
    ]
  @ per_node
  @ List.map
      (fun c ->
        (c, "count", float_of_int (Option.value (List.assoc_opt c r.S.counters) ~default:0)))
      counter_names

(* Host self-time and allocation per layer of a traced repetition;
   [host.sim_dispatch_s] is the host time no event accounts for
   (engine dispatch, heap, effect handling), so the layers, the
   unmapped remainder and it add up to the traced [host_s]. *)
let traced_layers r =
  let layers, (unmapped_s, _) = Layers.attribute r.S.profile in
  let bucket_sum = List.fold_left (fun a (_, (s, _)) -> a +. s) unmapped_s layers in
  List.map (fun (l, (s, _)) -> ("host." ^ l ^ "_s", "s", s)) layers
  @ List.map (fun (l, (_, w)) -> ("alloc." ^ l ^ "_mw", "Mwords", w /. 1e6)) layers
  @ [
      ("host.unmapped_s", "s", unmapped_s);
      ("host.sim_dispatch_s", "s", r.S.host_s -. bucket_sum);
      ("host.traced_s", "s", r.S.host_s);
    ]

(* Replay probes: the two data kernels that run inside NICFS stages,
   timed on 4 MB chunks shaped like sort_compress's records (100 B,
   10 B random key, 60% of the payload zero, the rest random). *)
let sort_shaped_chunk ~seed =
  let rng = Rng.create seed in
  let records = 4 * 1024 * 1024 / 100 in
  let b = Bytes.make (records * 100) '\000' in
  for r = 0 to records - 1 do
    let base = r * 100 in
    for i = 0 to 9 do Bytes.set b (base + i) (Rng.byte rng) done;
    for i = 10 + 54 to 99 do Bytes.set b (base + i) (Rng.byte rng) done
  done;
  Storage.Data.real b

let probe_mb_per_s ~rounds f chunk =
  let mb = float_of_int (Storage.Data.length chunk) /. 1e6 in
  median
    (List.init rounds (fun _ ->
         let t0 = Unix.gettimeofday () in
         f chunk;
         mb /. (Unix.gettimeofday () -. t0)))

let probes ~seed =
  let chunk = sort_shaped_chunk ~seed in
  [
    ( "compress.lzw_mb_per_s", "MB/s",
      probe_mb_per_s ~rounds:5 (fun c -> ignore (Compress.Lzw.encoded_length_data c : int)) chunk );
    ( "storage.crc32_mb_per_s", "MB/s",
      probe_mb_per_s ~rounds:15 (fun c -> ignore (Storage.Crc32.data c : int32)) chunk );
  ]

(* ---- the run ---------------------------------------------------- *)

(* What one repetition reports to the parent process. *)
type metric = string * string * float  (** name, unit, value *)

type outcome = {
  traced : bool;
  e2e : metric list;
  layers : metric list;
  host : metric list;  (** traced repetitions only *)
  signature : string;
  attempted : int;
  failed : int;
  fingerprint : S.fingerprint;
  tail : float * int;  (** client-op tail percentile, sample count *)
  factor : float;  (** host-time rescaling applied by the parent *)
}

let repetition wl ~seed ~traced ~digest =
  let r = S.run ~traced ~digest wl ~seed in
  let lat = Opsmeter.latency_all r.S.meter in
  let e2e = end_to_end r and layers = untraced_layers r in
  {
    traced;
    e2e;
    layers;
    host = (if traced then traced_layers r else []);
    signature = signature r (e2e @ layers);
    attempted = Opsmeter.ops_attempted r.S.meter + r.S.checks_run;
    failed = r.S.unexpected_errors + r.S.checks_failed;
    fingerprint = r.S.fingerprint;
    tail = (fst (Opsmeter.tail lat), Stats.Series.count lat);
    factor = 1.0;
  }

(* ---- host-speed normalisation -------------------------------------

   The host's speed drifts by up to 2x within minutes (shared cores), so
   raw wall times do not repeat from one run to the next.  The parent
   times a fixed reference kernel, written here and independent of the
   repository's code, between consecutive repetitions; each repetition's
   host times are rescaled to the speed at which the kernel takes
   [reference_s], using the mean of the kernel times on either side of
   it.  Raw wall seconds are kept in the run record. *)

let reference_s = 0.125

(* A blend of the simulator's costs, so that a slowdown of any one kind
   shows: dependent random reads over a 64 MB table (memory latency),
   an integer loop (ALU throughput), and sorting short-lived boxed
   pairs (allocation, minor GC, compares). *)
let table_words = 8 * 1024 * 1024

(* Outside the OCaml heap, so that repetitions forked from this process
   do not count it in their peak heap. *)
let table =
  let t = Bigarray.(Array1.create int c_layout table_words) in
  for i = 0 to table_words - 1 do t.{i} <- (i * 7919) land (table_words - 1) done;
  t

let kernel () =
  let t0 = Unix.gettimeofday () in
  let j = ref 0 in
  for _ = 1 to 400_000 do
    j := Bigarray.Array1.unsafe_get table (((!j * 1103515245) + 12345) land (table_words - 1))
  done;
  for i = 1 to 20_000_000 do
    j := !j + (i land 7)
  done;
  let rng = Random.State.make [| !j |] in
  let l = List.init 40_000 (fun _ -> (Random.State.int rng 1_000_000, Random.State.float rng 1.0)) in
  ignore (Sys.opaque_identity (List.sort compare l));
  Unix.gettimeofday () -. t0

(* Host-time metrics are the ones in seconds or nanoseconds; simulated
   times are all in microseconds. *)
let rescale factor (n, u, v) =
  match u with
  | "s" | "ns" -> (n, u, v *. factor)
  | "MB/s" -> (n, u, v /. factor)
  | _ -> (n, u, v)

(* Each repetition runs in a fresh child process, so it starts from the
   same heap as every other: OCaml 5.1 cannot compact, and a heap
   fragmented by earlier repetitions would tax later ones. *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let res = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (res : (outcome, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let res =
        try (Marshal.from_channel ic : (outcome, string) result)
        with End_of_file | Failure _ -> Error "repetition process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      res

let usage () =
  prerr_endline
    "usage: main.exe --workload seqwrite_busy|sort_compress|varmail_busy --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r v = match int_of_string_opt v with Some n -> r := Some n | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest ->
        (match S.of_name v with Some w -> workload := Some w | None -> usage ());
        parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: v :: rest -> int_arg trace v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wl, seed, seconds, trace =
    match (!workload, !seed, !seconds, !trace) with
    | Some w, Some s, Some n, Some t when n > 0 && (t = 0 || t = 1) -> (w, s, n, t = 1)
    | _ -> usage ()
  in
  Engine.profile_set_clock Unix.gettimeofday;
  let t_begin = Unix.gettimeofday () in
  let reps = ref [] and crashed = ref 0 in
  let kernel_s = ref [ kernel () ] in
  let count t = List.length (List.filter (fun o -> o.traced = t) !reps) in
  let min_each = 3 in
  let rec loop () =
    let enough = count false >= min_each && ((not trace) || count true >= min_each) in
    if not (enough && Unix.gettimeofday () -. t_begin >= float_of_int seconds) then begin
      (* With --trace 1, traced and untraced repetitions alternate. *)
      let traced = trace && count true < count false in
      (* Only the first repetition digests the file system: it is the
         run's fingerprint and costs more host time than the rest of a
         seqwrite_busy repetition. *)
      let digest = !reps = [] && !crashed = 0 in
      let res = in_child (fun () -> repetition wl ~seed ~traced ~digest) in
      let before = List.hd !kernel_s and after = kernel () in
      kernel_s := after :: !kernel_s;
      (match res with
      | Ok o ->
          let factor = reference_s /. ((before +. after) /. 2.0) in
          let sc = List.map (rescale factor) in
          reps := { o with e2e = sc o.e2e; layers = sc o.layers; host = sc o.host; factor } :: !reps
      | Error msg ->
          Printf.eprintf "perfbench: %s repetition failed: %s\n%!" (S.name wl) msg;
          incr crashed);
      if !crashed > 0 && !reps = [] then begin
        prerr_endline "perfbench: no repetition completed";
        exit 1
      end;
      loop ()
    end
  in
  loop ();
  let all = List.rev !reps in
  let canon = List.hd all in
  (* Same seed, same code: every simulated outcome must repeat. *)
  let diverged = List.filter (fun o -> o.signature <> canon.signature) all in
  if diverged <> [] then
    Printf.eprintf "perfbench: %d repetitions diverged from the first\n%!"
      (List.length diverged);
  let attempted = List.fold_left (fun a o -> a + o.attempted) !crashed all in
  let failed =
    List.fold_left (fun a o -> a + o.failed) (!crashed + List.length diverged) all
  in
  let untraced = List.filter (fun o -> not o.traced) all in
  let traced = List.filter (fun o -> o.traced) all in
  (* Each metric is the median over the repetitions that measure it,
     except host times other than [setup_s], which are the mean: a slow
     phase of the shared host that the kernel misses inflates a varying
     subset of repetitions, and on a shared 2-core Xeon VM the mean of
     the rescaled times repeated better over ten seeds than their median
     or lower quartile (worst spread 0.11 against 0.16 and 0.17). *)
  let value n o = let _, _, v = List.find (fun (m, _, _) -> m = n) o in v in
  let merge field os =
    List.map
      (fun (n, u, _) ->
        let stat = if n <> "setup_s" && (u = "s" || u = "ns") then mean else median in
        (n, u, stat (List.map (fun o -> value n (field o)) os)))
      (field (List.hd os))
  in
  let host_s o = value "host_s" o.e2e in
  let metrics =
    if trace then
      (* The per-layer host times come from one traced repetition, the
         one at the lower quartile of traced host time, so that they
         add up to its [host.traced_s]; the trace overhead compares it
         with the lower quartile of untraced host time. *)
      let by_host = List.sort (fun a b -> compare (host_s a) (host_s b)) traced in
      let rep = List.nth by_host ((List.length by_host - 1) / 4) in
      merge (fun o -> o.layers) untraced
      @ rep.host
      @ [ ( "host.trace_overhead_frac", "frac",
            fdiv (host_s rep) (quantile 0.25 (List.map host_s untraced)) -. 1.0 ) ]
      @ (let before = kernel () in
         let p = probes ~seed in
         let factor = reference_s /. ((before +. kernel ()) /. 2.0) in
         List.map (rescale factor) p)
    else
      merge (fun o -> o.e2e) untraced
      @ [ ("ok_frac", "frac", 1.0 -. fdiv (float_of_int failed) (float_of_int (max 1 attempted))) ]
  in
  let nproc, cpu = cpuinfo () in
  let tail_p, tail_n = canon.tail in
  let f = canon.fingerprint in
  List.iter (fun (n, u, v) -> Printf.printf "%-28s %18.6f %s\n" n v u) metrics;
  print_endline
    (json_obj
       [
         ( "record",
           json_obj
             [
               ("workload", json_string (S.name wl));
               ("seed", string_of_int seed);
               ("heldout_seed", string_of_int (heldout_seed seed));
               ("nproc", string_of_int nproc);
               ("cpu_model", json_string cpu);
               ("ocaml_version", json_string Sys.ocaml_version);
               ("gc", gc_settings ());
               ("repetitions", string_of_int (List.length all));
               ("traced_repetitions", string_of_int (List.length traced));
               ("failed_repetitions", string_of_int !crashed);
               ("diverged_repetitions", string_of_int (List.length diverged));
               ( "fingerprint",
                 json_obj
                   [
                     ( "primary_digest",
                       match f.S.digest with
                       | Some d -> Printf.sprintf "\"%08lx\"" d
                       | None -> "null" );
                     ("wire_bytes", string_of_int f.S.wire_bytes);
                     ("events", string_of_int f.S.events);
                     ("sim_elapsed_ns", string_of_int f.S.sim_elapsed);
                   ] );
               ("sim_op_tail_percentile", json_float tail_p);
               ("sim_op_latency_samples", string_of_int tail_n);
               ( "host_wall_s_by_repetition",
                 "[" ^ String.concat ", " (List.map (fun o -> json_float (host_s o /. o.factor)) all) ^ "]" );
               ( "kernel_s",
                 "[" ^ String.concat ", " (List.rev_map json_float !kernel_s) ^ "]" );
             ] );
       ]);
  print_endline
    (json_obj
       [
         ("correct", if failed = 0 then "true" else "false");
         ("attempted", string_of_int (max 1 attempted));
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (n, u, v) -> (n, json_obj [ ("value", json_float v); ("unit", json_string u) ]))
                metrics) );
       ])
