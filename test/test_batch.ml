(* Tests for the batch runner: results in input order and identical to
   a sequential run at every domain count, per-job error capture, and a
   stress test of batched racks on several domains. *)

open Sim

(* ------------------------------------------------------------------ *)
(* Order and determinism                                               *)
(* ------------------------------------------------------------------ *)

(* A small simulation whose trace depends on its own engine's RNG
   stream and clock: a few processes sleeping RNG-drawn delays. *)
let rng_sim seed =
  let eng = Engine.create ~seed () in
  let trace = ref [] in
  let rng = Engine.rng eng in
  for p = 0 to 2 do
    Engine.spawn_root eng (fun () ->
        for _ = 1 to 20 do
          Engine.sleep (Time.us (1 + Rng.int rng 50));
          trace := (p, Engine.now ()) :: !trace
        done)
  done;
  Engine.run eng;
  (seed, List.rev !trace, Engine.events_executed eng)

let test_input_order () =
  (* More jobs than any pool, so domains run several jobs in turn. *)
  let seeds = List.init 13 (fun i -> 100 + i) in
  let sequential = List.map rng_sim seeds in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d equals the sequential run" domains)
        true
        (Batch.map ~domains rng_sim seeds = sequential))
    [ 1; 2; 4 ]

let test_workers () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "one job, one worker" 1
    (Batch.workers ~domains:4 ~jobs:1);
  Alcotest.(check int) "no jobs still one worker" 1
    (Batch.workers ~domains:4 ~jobs:0);
  Alcotest.(check int) "capped by cores" (min 8 cores)
    (Batch.workers ~domains:8 ~jobs:8);
  Alcotest.(check (list int)) "empty batch" [] (Batch.map ~domains:4 Fun.id [])

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

exception Job_failed of int

let failing_jobs ~n ~fail finished =
  List.init n (fun i () ->
      if List.mem i fail then raise (Job_failed i);
      Atomic.incr finished;
      i * i)

let test_errors_by_index () =
  List.iter
    (fun domains ->
      let finished = Atomic.make 0 in
      let results =
        Batch.run ~domains (failing_jobs ~n:8 ~fail:[ 2; 5 ] finished)
      in
      Alcotest.(check int) "every other job finished" 6 (Atomic.get finished);
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check int) (Printf.sprintf "job %d value" i) (i * i) v
          | Error (Job_failed j) ->
              Alcotest.(check int) "error reported at its own index" i j
          | Error e ->
              Alcotest.failf "job %d: unexpected %s" i (Printexc.to_string e))
        results;
      Alcotest.(check (list int)) "failed indices" [ 2; 5 ]
        (List.concat
           (List.mapi
              (fun i r -> match r with Error _ -> [ i ] | Ok _ -> [])
              results)))
    [ 1; 2; 4 ]

let test_map_reraises_lowest () =
  List.iter
    (fun domains ->
      let finished = Atomic.make 0 in
      let jobs = failing_jobs ~n:8 ~fail:[ 6; 3 ] finished in
      (match Batch.map ~domains (fun job -> job ()) jobs with
      | _ -> Alcotest.fail "map returned despite failing jobs"
      | exception Job_failed i ->
          Alcotest.(check int) "lowest-index failure re-raised" 3 i);
      Alcotest.(check int) "remaining jobs ran first" 6 (Atomic.get finished))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Stress: batched racks on several domains                            *)
(* ------------------------------------------------------------------ *)

let rack_params =
  {
    Linefs.Params.default with
    Linefs.Params.chunk_bytes = 256 * 1024;
    log_bytes = 4 * 1024 * 1024;
  }

(* Everything a run can show: per group the primary digest, wire bytes,
   elapsed and final clock, events and engine-local counters. *)
let rack_run ~nodes ~domains =
  Workloads.Rack_cohort.run ~domains ~params:rack_params ~nodes ~group_size:4
    ~cohort:2 ~group_bytes:(4 * 1024 * 1024) ~io_bytes:(16 * 1024) ()
  |> Array.map (fun (r, eng) ->
         let d = r.Workloads.Rack_cohort.deployment in
         ( Storage.Fs_state.digest
             (Linefs.Deployment.primary d).Linefs.Deployment.fs,
           Linefs.Deployment.replication_wire_bytes d,
           r.Workloads.Rack_cohort.elapsed,
           Engine.current_time eng,
           Engine.events_executed eng,
           Counters.all_in eng ))

let test_rack_stress () =
  List.iter
    (fun (nodes, iterations) ->
      let reference = rack_run ~nodes ~domains:1 in
      List.iter
        (fun domains ->
          for it = 1 to iterations do
            if rack_run ~nodes ~domains <> reference then
              Alcotest.failf "%d-node rack, domains=%d, run %d diverged" nodes
                domains it
          done)
        [ 2; 4 ])
    [ (8, 20); (24, 5) ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "batch"
    [
      ( "order",
        [
          tc "same as sequential at domains 1/2/4" `Quick test_input_order;
          tc "worker count" `Quick test_workers;
        ] );
      ( "errors",
        [
          tc "a raising job is reported by its index" `Quick
            test_errors_by_index;
          tc "map re-raises the lowest-index failure" `Quick
            test_map_reraises_lowest;
        ] );
      ( "stress",
        [
          tc "racks identical on every run at 2/4" `Quick test_rack_stress;
        ] );
    ]
