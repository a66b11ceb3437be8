(* Unit tests of the benchmark's own code, on shrunken workloads. *)

open Perfbench
module S = Scenarios

let tiny =
  {
    S.sw_clients = 2;
    sw_client_mb = 4;
    sort_records = 5_000;
    vm_files = 96;
    vm_threads = 8;
    vm_ms = 20;
  }

let fingerprint r =
  let f = r.S.fingerprint in
  Printf.sprintf "digest=%08lx wire=%d events=%d sim_ns=%d"
    (Option.get f.S.digest) f.S.wire_bytes f.S.events f.S.sim_elapsed

(* The phase boundaries in simulated time, and what DFS work did in
   between; only meaningful where the phase start does not depend on
   the wrapper (varmail detects it through the wrapper). *)
let phase r =
  let s0, s1 = r.S.phase in
  Printf.sprintf "sim=%d..%d events=%d..%d dfs_cpu=%d..%d" s0.S.sim s1.S.sim
    s0.S.events s1.S.events s0.S.dfs_cpu s1.S.dfs_cpu

(* The ops wrapper only reads the simulated clock: a wrapped run must
   execute exactly the schedule of an unwrapped one, so every simulated
   metric and the fingerprint are the same. *)
let test_wrapper_transparent wl () =
  let wrapped = S.run ~size:tiny wl ~seed:5 in
  let bare = S.run ~size:tiny ~wrap:false wl ~seed:5 in
  Alcotest.(check string) "fingerprint" (fingerprint bare) (fingerprint wrapped);
  if wl <> S.Varmail_busy then
    Alcotest.(check string) "phase" (phase bare) (phase wrapped);
  Alcotest.(check bool) "wrapper counted ops" true
    (Opsmeter.ops_ok wrapped.S.meter > 0);
  Alcotest.(check int) "bare run counted nothing" 0 (Opsmeter.ops_ok bare.S.meter)

(* Every profile bucket the workload produces must map to a layer. *)
let test_buckets_mapped wl () =
  let r = S.run ~size:tiny ~traced:true wl ~seed:5 in
  Alcotest.(check bool) "profile recorded" true (r.S.profile <> []);
  Alcotest.(check (list string)) "unmapped buckets" [] (Layers.unmapped r.S.profile)

let test_checks_pass wl () =
  let r = S.run ~size:tiny wl ~seed:9 in
  Alcotest.(check int) "failed checks" 0 r.S.checks_failed;
  Alcotest.(check int) "unexpected op errors" 0 r.S.unexpected_errors

let test_tail () =
  let s = Sim.Stats.Series.create () in
  for i = 1 to 1000 do Sim.Stats.Series.add s (float_of_int i) done;
  (* 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1. *)
  Alcotest.(check (pair (float 0.0) (float 0.0))) "p99" (99.0, 990.0) (Opsmeter.tail s)

let () =
  let per_workload name f =
    List.map (fun wl -> Alcotest.test_case (S.name wl) `Quick (f wl)) S.all
    |> fun cases -> (name, cases)
  in
  Alcotest.run "perfbench"
    [
      per_workload "wrapper transparent" test_wrapper_transparent;
      per_workload "buckets mapped" test_buckets_mapped;
      per_workload "output checks" test_checks_pass;
      ("tail percentile", [ Alcotest.test_case "ladder" `Quick test_tail ]);
    ]
