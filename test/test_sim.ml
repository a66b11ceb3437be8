(* Tests for the discrete-event simulation engine and its primitives. *)

open Sim

let run_sim f =
  let eng = Engine.create () in
  Engine.spawn_root eng f;
  Engine.run eng;
  eng

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock_starts_at_zero () =
  let eng = Engine.create () in
  Alcotest.(check int) "initial clock" 0 (Engine.current_time eng)

let test_sleep_advances_clock () =
  let observed = ref (-1) in
  let eng =
    run_sim (fun () ->
        Engine.sleep (Time.us 10);
        observed := Engine.now ())
  in
  Alcotest.(check int) "after sleep" (Time.us 10) !observed;
  Alcotest.(check int) "engine clock" (Time.us 10) (Engine.current_time eng)

let test_sleep_zero_is_noop_in_time () =
  let observed = ref (-1) in
  ignore
    (run_sim (fun () ->
         Engine.sleep 0;
         observed := Engine.now ()));
  Alcotest.(check int) "no time passes" 0 !observed

let test_sequential_sleeps_accumulate () =
  let observed = ref (-1) in
  ignore
    (run_sim (fun () ->
         Engine.sleep (Time.us 3);
         Engine.sleep (Time.us 4);
         Engine.sleep (Time.ns 5);
         observed := Engine.now ()));
  Alcotest.(check int) "sum of sleeps" (Time.us 7 + 5) !observed

let test_spawn_runs_concurrently () =
  (* Two processes sleeping in parallel finish at max, not sum. *)
  let finish_a = ref 0 and finish_b = ref 0 in
  let eng =
    run_sim (fun () ->
        Engine.spawn (fun () ->
            Engine.sleep (Time.us 10);
            finish_a := Engine.now ());
        Engine.spawn (fun () ->
            Engine.sleep (Time.us 20);
            finish_b := Engine.now ()))
  in
  Alcotest.(check int) "a finished at 10us" (Time.us 10) !finish_a;
  Alcotest.(check int) "b finished at 20us" (Time.us 20) !finish_b;
  Alcotest.(check int) "run ends at 20us" (Time.us 20) (Engine.current_time eng)

let test_event_ordering_fifo_at_same_time () =
  (* Events scheduled for the same instant run in insertion order. *)
  let order = ref [] in
  ignore
    (run_sim (fun () ->
         for i = 1 to 5 do
           Engine.spawn (fun () -> order := i :: !order)
         done));
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_spawner_continues_before_child () =
  let order = ref [] in
  ignore
    (run_sim (fun () ->
         Engine.spawn (fun () -> order := "child" :: !order);
         order := "parent" :: !order));
  Alcotest.(check (list string))
    "parent first" [ "parent"; "child" ] (List.rev !order)

let test_deadline_stops_run () =
  let last = ref 0 in
  let eng = Engine.create () in
  Engine.spawn_root eng (fun () ->
      let rec loop () =
        Engine.sleep (Time.ms 1);
        last := Engine.now ();
        loop ()
      in
      loop ());
  Engine.run ~deadline:(Time.ms 10) eng;
  Alcotest.(check int) "clock at deadline" (Time.ms 10) (Engine.current_time eng);
  Alcotest.(check bool) "progressed" true (!last >= Time.ms 9)

let test_stop_preserves_pending_events () =
  let count = ref 0 in
  let eng = Engine.create () in
  Engine.spawn_root eng (fun () ->
      for _ = 1 to 10 do
        Engine.sleep (Time.us 1);
        incr count;
        if !count = 3 then Engine.stop eng
      done);
  Engine.run eng;
  Alcotest.(check int) "stopped early" 3 !count;
  Engine.run eng;
  Alcotest.(check int) "resumed to completion" 10 !count

let test_process_failure_propagates () =
  let eng = Engine.create () in
  Engine.spawn_root ~name:"bad" eng (fun () -> failwith "boom");
  match Engine.run eng with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Engine.Process_failure (name, Failure msg) ->
      Alcotest.(check string) "process name" "bad" name;
      Alcotest.(check string) "message" "boom" msg
  | exception e -> raise e

let test_not_in_process () =
  match Engine.now () with
  | _ -> Alcotest.fail "expected Not_in_process"
  | exception Engine.Not_in_process -> ()

let test_suspend_waker_once () =
  (* Firing a waker twice must resume the process only once. *)
  let resumed = ref 0 in
  let stash = ref None in
  ignore
    (run_sim (fun () ->
         Engine.spawn (fun () ->
             let v = Engine.suspend (fun wake -> stash := Some wake) in
             resumed := !resumed + v);
         Engine.sleep (Time.us 1);
         match !stash with
         | Some wake ->
             wake 7;
             wake 100
         | None -> failwith "waker not registered"));
  Alcotest.(check int) "resumed once with first value" 7 !resumed

let test_suspend_timeout_fires () =
  let result = ref (Some 0) in
  ignore
    (run_sim (fun () ->
         result := Engine.suspend_cancellable (fun _wake -> ()) ~timeout:(Time.us 5)));
  Alcotest.(check (option int)) "timed out" None !result

let test_suspend_timeout_wake_wins () =
  let result = ref None in
  ignore
    (run_sim (fun () ->
         let wake_slot = ref None in
         Engine.spawn (fun () ->
             Engine.sleep (Time.us 1);
             match !wake_slot with Some w -> w 42 | None -> ());
         result :=
           Engine.suspend_cancellable
             (fun wake -> wake_slot := Some wake)
             ~timeout:(Time.us 5)));
  Alcotest.(check (option int)) "woken before timeout" (Some 42) !result

let test_rng_determinism () =
  let eng1 = Engine.create ~seed:7 () in
  let eng2 = Engine.create ~seed:7 () in
  let a = List.init 10 (fun _ -> Rng.int (Engine.rng eng1) 1000) in
  let b = List.init 10 (fun _ -> Rng.int (Engine.rng eng2) 1000) in
  Alcotest.(check (list int)) "same seed, same stream" a b

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~key:5 ~seq:0 "e";
  Heap.push h ~key:1 ~seq:1 "a";
  Heap.push h ~key:3 ~seq:2 "c";
  Heap.push h ~key:1 ~seq:0 "a0";
  let keys = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, _, v) ->
        keys := v :: !keys;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string))
    "min order with seq tiebreak" [ "a0"; "a"; "c"; "e" ] (List.rev !keys)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list small_nat)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i ()) keys;
      let rec drain acc =
        match Heap.pop h with
        | Some (k, _, ()) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare keys)

(* Model check against a sorted-list reference: interleaved pushes and
   pops (with values carried, not just keys) must match exactly,
   including the (key, seq) lexicographic tiebreak the engine's
   determinism rests on. *)
let prop_heap_interleaved_model =
  QCheck.Test.make ~name:"heap matches sorted-list model under interleaving"
    ~count:300
    QCheck.(list (pair bool (int_bound 50)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (push, key) ->
          if push then begin
            let v = (key, !seq) in
            Heap.push h ~key ~seq:!seq v;
            model :=
              List.sort
                (fun (k1, s1) (k2, s2) -> compare (k1, s1) (k2, s2))
                ((key, !seq) :: !model);
            incr seq
          end
          else
            match (Heap.pop h, !model) with
            | None, [] -> ()
            | Some (k, s, v), (mk, ms) :: rest ->
                if k <> mk || s <> ms || v <> (mk, ms) then ok := false
                else model := rest
            | Some _, [] | None, _ :: _ -> ok := false;
          if Heap.length h <> List.length !model then ok := false;
          match (Heap.peek_key h, !model) with
          | None, [] -> ()
          | Some k, (mk, _) :: _ -> if k <> mk then ok := false
          | _ -> ok := false)
        ops;
      !ok)

let prop_heap_length =
  QCheck.Test.make ~name:"heap length tracks pushes and pops" ~count:200
    QCheck.(list small_nat)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i ()) keys;
      let n = List.length keys in
      let ok = ref (Heap.length h = n) in
      List.iteri
        (fun i _ ->
          ignore (Heap.pop h);
          ok := !ok && Heap.length h = n - i - 1)
        keys;
      !ok)

(* ------------------------------------------------------------------ *)
(* Cond / Mailbox / Semaphore / Ivar                                   *)
(* ------------------------------------------------------------------ *)

let test_cond_signal_wakes_one () =
  let woken = ref 0 in
  ignore
    (run_sim (fun () ->
         let c = Cond.create () in
         for _ = 1 to 3 do
           Engine.spawn (fun () ->
               Cond.await c;
               incr woken)
         done;
         Engine.sleep (Time.us 1);
         Cond.signal c;
         Engine.sleep (Time.us 1)));
  Alcotest.(check int) "exactly one woken" 1 !woken

let test_cond_broadcast_wakes_all () =
  let woken = ref 0 in
  ignore
    (run_sim (fun () ->
         let c = Cond.create () in
         for _ = 1 to 3 do
           Engine.spawn (fun () ->
               Cond.await c;
               incr woken)
         done;
         Engine.sleep (Time.us 1);
         Cond.broadcast c;
         Engine.sleep (Time.us 1)));
  Alcotest.(check int) "all woken" 3 !woken

let test_cond_timeout_does_not_eat_signal () =
  (* A waiter that timed out must not consume a later signal meant for a
     live waiter. *)
  let woken = ref 0 in
  ignore
    (run_sim (fun () ->
         let c = Cond.create () in
         Engine.spawn (fun () ->
             (* This waiter times out at 1us. *)
             ignore (Cond.await_timeout c (Time.us 1) : bool));
         Engine.spawn (fun () ->
             Cond.await c;
             incr woken);
         Engine.sleep (Time.us 5);
         Cond.signal c;
         Engine.sleep (Time.us 1)));
  Alcotest.(check int) "live waiter woken" 1 !woken

let test_mailbox_fifo () =
  let received = ref [] in
  ignore
    (run_sim (fun () ->
         let mb = Mailbox.create () in
         Engine.spawn (fun () ->
             for _ = 1 to 3 do
               received := Mailbox.recv mb :: !received
             done);
         Engine.sleep (Time.us 1);
         Mailbox.send mb 1;
         Mailbox.send mb 2;
         Mailbox.send mb 3));
  Alcotest.(check (list int)) "fifo delivery" [ 1; 2; 3 ] (List.rev !received)

let test_mailbox_recv_blocks_until_send () =
  let recv_time = ref 0 in
  ignore
    (run_sim (fun () ->
         let mb = Mailbox.create () in
         Engine.spawn (fun () ->
             ignore (Mailbox.recv mb : int);
             recv_time := Engine.now ());
         Engine.sleep (Time.us 10);
         Mailbox.send mb 99));
  Alcotest.(check int) "received when sent" (Time.us 10) !recv_time

let test_mailbox_recv_timeout () =
  let got = ref (Some 1) in
  let elapsed = ref 0 in
  ignore
    (run_sim (fun () ->
         let mb : int Mailbox.t = Mailbox.create () in
         got := Mailbox.recv_timeout mb (Time.us 7);
         elapsed := Engine.now ()));
  Alcotest.(check (option int)) "no message" None !got;
  Alcotest.(check int) "waited full timeout" (Time.us 7) !elapsed

let test_semaphore_limits_concurrency () =
  let peak = ref 0 and active = ref 0 in
  ignore
    (run_sim (fun () ->
         let s = Semaphore.create 2 in
         for _ = 1 to 6 do
           Engine.spawn (fun () ->
               Semaphore.with_permit s (fun () ->
                   incr active;
                   if !active > !peak then peak := !active;
                   Engine.sleep (Time.us 5);
                   decr active))
         done));
  Alcotest.(check int) "at most 2 concurrent" 2 !peak

let test_semaphore_fifo_handoff () =
  let order = ref [] in
  ignore
    (run_sim (fun () ->
         let s = Semaphore.create 1 in
         for i = 1 to 4 do
           Engine.spawn (fun () ->
               Semaphore.with_permit s (fun () ->
                   order := i :: !order;
                   Engine.sleep (Time.us 1)))
         done));
  Alcotest.(check (list int)) "fifo service" [ 1; 2; 3; 4 ] (List.rev !order)

let test_ivar_fill_read () =
  let v = ref 0 and fill_time = ref 0 and read_time = ref 0 in
  ignore
    (run_sim (fun () ->
         let iv = Ivar.create () in
         Engine.spawn (fun () ->
             v := Ivar.read iv;
             read_time := Engine.now ());
         Engine.sleep (Time.us 3);
         fill_time := Engine.now ();
         Ivar.fill iv 123));
  Alcotest.(check int) "value" 123 !v;
  Alcotest.(check int) "read resumed at fill time" !fill_time !read_time

let test_ivar_double_fill_rejected () =
  ignore
    (run_sim (fun () ->
         let iv = Ivar.create () in
         Ivar.fill iv 1;
         match Ivar.fill iv 2 with
         | () -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ()))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_series_summary () =
  let s = Stats.Series.create () in
  List.iter (Stats.Series.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Stats.Series.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.Series.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Series.min s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.Series.max s);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.Series.percentile s 50.0)

let test_series_percentile_tail () =
  let s = Stats.Series.create () in
  for i = 1 to 1000 do
    Stats.Series.add s (float_of_int i)
  done;
  let p99 = Stats.Series.percentile s 99.0 in
  Alcotest.(check bool) "p99 near 990" true (p99 >= 985.0 && p99 <= 995.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 1000.0
    (Stats.Series.percentile s 100.0)

let prop_series_mean_bounded =
  QCheck.Test.make ~name:"series mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.Series.create () in
      List.iter (Stats.Series.add s) xs;
      let m = Stats.Series.mean s in
      m >= Stats.Series.min s -. 1e-9 && m <= Stats.Series.max s +. 1e-9)

let test_timeseries_buckets () =
  let ts = Stats.Timeseries.create ~bucket:(Time.sec 1) in
  Stats.Timeseries.add ts ~at:(Time.ms 500) 10.0;
  Stats.Timeseries.add ts ~at:(Time.ms 800) 5.0;
  Stats.Timeseries.add ts ~at:(Time.ms 2500) 7.0;
  match Stats.Timeseries.buckets ts with
  | [ (t0, v0); (t1, v1); (t2, v2) ] ->
      Alcotest.(check int) "bucket0 start" 0 t0;
      Alcotest.(check (float 1e-9)) "bucket0 sum" 15.0 v0;
      Alcotest.(check int) "bucket1 start" (Time.sec 1) t1;
      Alcotest.(check (float 1e-9)) "bucket1 empty" 0.0 v1;
      Alcotest.(check int) "bucket2 start" (Time.sec 2) t2;
      Alcotest.(check (float 1e-9)) "bucket2 sum" 7.0 v2
  | other ->
      Alcotest.failf "expected 3 buckets, got %d" (List.length other)

let test_busy_utilization () =
  let b = Stats.Busy.create () in
  Stats.Busy.record b ~start:0 ~stop:(Time.sec 1);
  Stats.Busy.record b ~start:0 ~stop:(Time.sec 1);
  Stats.Busy.record b ~start:(Time.sec 1) ~stop:(Time.sec 2);
  Alcotest.(check (float 1e-9))
    "1.5 cores average over 2s" 1.5
    (Stats.Busy.utilization b ~over:(Time.sec 2))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_int_range () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_split_independent () =
  let r = Rng.create 5 in
  let a = Rng.split r in
  let b = Rng.split r in
  let xs = List.init 5 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 5 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float stays in range" ~count:200
    QCheck.(pair small_nat (float_bound_exclusive 100.0))
    (fun (seed, bound) ->
      QCheck.assume (bound > 0.0);
      let r = Rng.create seed in
      let v = Rng.float r bound in
      v >= 0.0 && v < bound)

(* The generator's streams, pinned as literals: any change to its
   state handling must reproduce them draw for draw.  Each kind is
   drawn from a fresh generator of the seed. *)
type pinned_streams = {
  p_int64 : int64 list;
  p_int : int list;
  p_byte : char list;
  p_float : float list;
  p_bool : bool list;
  p_child : int64 list;  (** [int64] stream of [split (create seed)] *)
}

let pinned_streams =
  [
    ( 1,
      {
        p_int64 =
          [ -4616330145664149646L; 6869446166584666695L; 8084911050856847527L;
            -846397198931878612L; 3727343498630883515L; -7456765501708208026L;
            8407459800431601144L; 3430088234347965294L; 5808099861970480573L;
            -2172474089950573756L; -8945553099086264698L;
            -8603295654659979639L; -1424582745090185746L;
            3723083104817009959L; 2857380782389785691L;
            -8373586259226197282L ];
        p_int =
          [ 162; 791; 623; 292; 515; 782; 240; 294; 669; 148; 110; 169; 158;
            959; 691; 526 ];
        p_byte =
          [ '\114'; '\071'; '\167'; '\044'; '\187'; '\102'; '\248'; '\110';
            '\189'; '\068'; '\134'; '\137'; '\238'; '\039'; '\091'; '\222' ];
        p_float =
          [ 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2;
            0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1;
            0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3; 0x1.426a103512fbap-2;
            0x1.c3b3a4a6a1831p-1; 0x1.07b605b43323p-1; 0x1.1135e85e5ca9p-1;
            0x1.d875bb150b7f4p-1; 0x1.9d5862dd5f028p-3; 0x1.3d3ba575d2f78p-3;
            0x1.179617532576p-1 ];
        p_bool =
          [ false; true; true; false; true; false; false; false; true; false;
            false; true; false; true; true; false ];
        p_child =
          [ 6180444375122719049L; -322658711145397775L; 6258715490988419664L;
            8703581636288138626L; 1398927919794477307L; -6979198776017295577L;
            -3640565991946710257L; 426573555231986849L; 7999926224299076670L;
            3313092693973421564L; 5794600398835329322L; -1516360358565314291L;
            2971897643220351380L; -6228097475619783690L; 1931120044866255313L;
            -872781581156717119L ];
      } );
    ( 42,
      {
        p_int64 =
          [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
            885919558081284366L; -353919125003956057L; 4337243929683858115L;
            5152897204343404489L; 2820384354626331986L; -4414613273027670835L;
            4497339579670313847L; -4345211542386587372L;
            -2098947937136382188L; -1845073873574444724L;
            1482940387686048950L; 700186318760072552L; -2693559979281954569L ];
        p_int =
          [ 473; 191; 141; 366; 847; 115; 585; 986; 69; 847; 532; 716; 180;
            950; 552; 335 ];
        p_byte =
          [ '\105'; '\215'; '\213'; '\014'; '\167'; '\195'; '\201'; '\082';
            '\205'; '\119'; '\020'; '\020'; '\076'; '\182'; '\104'; '\247' ];
        p_float =
          [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
            0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
            0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3; 0x1.8578493c50ec1p-1;
            0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1; 0x1.c5be13f199e4dp-1;
            0x1.ccc9f62cda7b8p-1; 0x1.494766cf71b6p-4; 0x1.36f1f7e8c90ap-5;
            0x1.b53d1af09b619p-1 ];
        p_bool =
          [ true; true; true; false; true; true; true; false; true; true;
            false; false; false; false; false; true ];
        p_child =
          [ 6168158941143839527L; -3019913106490840865L;
            -1367550982472023797L; -7015381238573483236L;
            -5706006749629217081L; 2300893321553747151L;
            -1304710398959156219L; 7724519035333002459L;
            -6167902470894854710L; -6101494679193127909L;
            -8040349693739079202L; -4110237174666755222L;
            -4466446693915575709L; -2811451017334004160L;
            -3970826150298072149L; 2747901263051578712L ];
      } );
  ]

let test_rng_pinned_streams () =
  let draws seed f = let r = Rng.create seed in List.init 16 (fun _ -> f r) in
  List.iter
    (fun (seed, p) ->
      let name kind = Printf.sprintf "seed %d %s" seed kind in
      Alcotest.(check (list int64)) (name "int64") p.p_int64 (draws seed Rng.int64);
      Alcotest.(check (list int)) (name "int") p.p_int
        (draws seed (fun r -> Rng.int r 1000));
      Alcotest.(check (list char)) (name "byte") p.p_byte (draws seed Rng.byte);
      Alcotest.(check (list (float 0.0))) (name "float") p.p_float
        (draws seed (fun r -> Rng.float r 1.0));
      Alcotest.(check (list bool)) (name "bool") p.p_bool (draws seed Rng.bool);
      let r = Rng.create seed in
      let child = Rng.split r in
      Alcotest.(check (list int64)) (name "split child") p.p_child
        (List.init 16 (fun _ -> Rng.int64 child));
      (* [split] consumes one draw of its parent. *)
      Alcotest.(check (list int64)) (name "parent after split")
        (List.tl p.p_int64)
        (List.init 15 (fun _ -> Rng.int64 r));
      let buf = Bytes.make 18 '.' in
      Rng.draw_bytes (Rng.create seed) buf ~pos:1 ~len:16;
      Alcotest.(check string) (name "draw_bytes")
        ("." ^ String.of_seq (List.to_seq p.p_byte) ^ ".")
        (Bytes.to_string buf))
    pinned_streams

(* The draws the workloads make per byte or per event allocate nothing:
   the generator state is never boxed.  [float] is the one exception,
   and only for its result: a float returned from a call that is not
   inlined is boxed (2 words), and dune's default dev profile compiles
   with -opaque, which rules out inlining across libraries. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 3 in
  let n = 10_000 in
  let words f =
    f ();
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let words_of name f =
    Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 (words f)
  in
  let float_words =
    words (fun () ->
        let acc = ref 0.0 in
        for _ = 1 to n do
          acc := !acc +. Rng.float r 1.0
        done;
        if !acc < 0.0 then Alcotest.fail "negative draw")
  in
  Alcotest.(check bool)
    (Printf.sprintf "float: %.0f minor words <= one boxed result per draw"
       float_words)
    true
    (float_words <= float_of_int (2 * n));
  words_of "int" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Rng.int r 1000))
      done);
  words_of "byte" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Rng.byte r))
      done);
  words_of "bool" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Rng.bool r))
      done);
  let buf = Bytes.create n in
  words_of "draw_bytes" (fun () -> Rng.draw_bytes r buf ~pos:0 ~len:n)

let test_time_pretty_print () =
  Alcotest.(check string) "ns" "42ns" (Time.to_string 42);
  Alcotest.(check string) "us" "1.50us" (Time.to_string 1500);
  Alcotest.(check string) "ms" "2.00ms" (Time.to_string (Time.ms 2));
  Alcotest.(check string) "s" "3.000s" (Time.to_string (Time.sec 3))

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "engine",
        [
          tc "clock starts at zero" `Quick test_clock_starts_at_zero;
          tc "sleep advances clock" `Quick test_sleep_advances_clock;
          tc "sleep zero" `Quick test_sleep_zero_is_noop_in_time;
          tc "sequential sleeps" `Quick test_sequential_sleeps_accumulate;
          tc "spawn concurrency" `Quick test_spawn_runs_concurrently;
          tc "fifo at same timestamp" `Quick test_event_ordering_fifo_at_same_time;
          tc "spawner continues first" `Quick test_spawner_continues_before_child;
          tc "deadline stops run" `Quick test_deadline_stops_run;
          tc "stop preserves events" `Quick test_stop_preserves_pending_events;
          tc "process failure propagates" `Quick test_process_failure_propagates;
          tc "not in process" `Quick test_not_in_process;
          tc "waker fires once" `Quick test_suspend_waker_once;
          tc "suspend timeout" `Quick test_suspend_timeout_fires;
          tc "suspend wake beats timeout" `Quick test_suspend_timeout_wake_wins;
          tc "rng determinism" `Quick test_rng_determinism;
        ] );
      ( "heap",
        [
          tc "ordering with tiebreak" `Quick test_heap_ordering;
          qt prop_heap_sorts;
          qt prop_heap_length;
          qt prop_heap_interleaved_model;
        ] );
      ( "sync",
        [
          tc "cond signal wakes one" `Quick test_cond_signal_wakes_one;
          tc "cond broadcast wakes all" `Quick test_cond_broadcast_wakes_all;
          tc "cond timeout no signal steal" `Quick
            test_cond_timeout_does_not_eat_signal;
          tc "mailbox fifo" `Quick test_mailbox_fifo;
          tc "mailbox recv blocks" `Quick test_mailbox_recv_blocks_until_send;
          tc "mailbox recv timeout" `Quick test_mailbox_recv_timeout;
          tc "semaphore limits concurrency" `Quick
            test_semaphore_limits_concurrency;
          tc "semaphore fifo handoff" `Quick test_semaphore_fifo_handoff;
          tc "ivar fill/read" `Quick test_ivar_fill_read;
          tc "ivar double fill" `Quick test_ivar_double_fill_rejected;
        ] );
      ( "stats",
        [
          tc "series summary" `Quick test_series_summary;
          tc "series tail percentile" `Quick test_series_percentile_tail;
          qt prop_series_mean_bounded;
          tc "timeseries buckets" `Quick test_timeseries_buckets;
          tc "busy utilization" `Quick test_busy_utilization;
        ] );
      ( "rng-time",
        [
          tc "rng int range" `Quick test_rng_int_range;
          tc "rng split" `Quick test_rng_split_independent;
          qt prop_rng_float_range;
          tc "time pretty print" `Quick test_time_pretty_print;
          tc "rng pinned streams" `Quick test_rng_pinned_streams;
          tc "rng draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
    ]
