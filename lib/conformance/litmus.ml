open Sim
module D = Linefs.Deployment
module Nicfs = Linefs.Nicfs
module Libfs = Linefs.Libfs
module Plan = Fault.Plan
module Trace = Fault.Trace
module Netfault = Fault.Netfault
module Invariant = Fault.Invariant

type spec = {
  seed : int;
  trace : Opgen.t;
  plan : Plan.t;
  horizon : Time.t;
}

type mutation = Drop_entry | No_dedup | No_scrub

type outcome = {
  completed : bool;
  divergences : Exec.divergence list;
  violations : Invariant.violation list;
  model_digest : int32;
  fs_digest : int32;
}

let failed o =
  (not o.completed) || o.divergences <> [] || o.violations <> []

let pp_spec fmt s =
  Format.fprintf fmt "seed=%d ops=%d horizon=%a plan=%a" s.seed
    (List.length s.trace.Opgen.ops)
    Time.pp s.horizon Plan.pp s.plan

let pp_outcome fmt o =
  Format.fprintf fmt
    "%s: model=%08lx fs=%08lx divergences=%d violations=%d"
    (if o.completed then "completed" else "WEDGED")
    o.model_digest o.fs_digest
    (List.length o.divergences)
    (List.length o.violations);
  List.iter
    (fun d -> Format.fprintf fmt "@\n  %a" Exec.pp_divergence d)
    o.divergences;
  List.iter
    (fun v -> Format.fprintf fmt "@\n  %a" Invariant.pp_violation v)
    o.violations

let generate ~seed =
  let rng = Rng.create seed in
  let horizon = Time.ms 20 in
  let trace =
    Opgen.generate ~meta_ratio:0.6 ~ops:(30 + Rng.int rng 31) ~seed ()
  in
  let plan =
    match Rng.int rng 5 with
    | 0 -> Plan.generate ~rng ~nodes:3 ~horizon
    | 1 ->
        [ Plan.Crash { node = 0; at = Time.ms 4; restart_after = Time.ms 8 } ]
    | 2 -> [ Plan.Node_death { node = 2; at = Time.ms 5 } ]
    | 3 ->
        [
          Plan.Partition { a = 0; b = 1; at = Time.ms 3; heal_after = Time.ms 4 };
          Plan.Crash { node = 1; at = Time.ms 9; restart_after = Time.ms 5 };
        ]
    | _ ->
        (* Byzantine-fabric adversary: duplication / reordering /
           corruption / storage faults only. *)
        Plan.generate_adversary ~rng ~nodes:3 ~horizon
  in
  { seed; trace; plan; horizon }

(* Crafted specs for the mutation self-tests: plans that reliably put
   the disabled defence on the critical path. *)

let adversary_dup_spec ~seed =
  let base = generate ~seed in
  {
    base with
    plan =
      [
        Plan.Link_dup
          { a = 0; b = 1; at = Time.ms 2; duration = Time.ms 14; p = 0.6 };
      ];
  }

let adversary_torn_spec ~seed =
  let base = generate ~seed in
  { base with plan = [ Plan.Torn_tail { node = 1; at = Time.ms 3 } ] }

let sleep_until at =
  let now = Engine.now () in
  if at > now then Engine.sleep (at - now)

(* Drop one mid-sequence entry from the longest history: the
   lost-update recovery bug the prefix checker exists to catch. *)
let mutate_histories = function
  | (c, es) :: rest when List.length es >= 2 ->
      let k = List.length es / 2 in
      (c, List.filteri (fun i _ -> i <> k) es) :: rest
  | hs -> hs

(* The deployment / manager / recovery glue mirrors Fault.Scenario.run
   — same params, same failover driver, same recovery policy — with
   the seeded random clients replaced by one lockstep Exec client. *)
let run ?mutate (spec : spec) =
  (* Planted-bug knobs: [No_dedup] turns off both dedup layers (the
     RPC reply cache and the replica publication gate); [No_scrub]
     suppresses torn-record re-fetch.  Restored unconditionally. *)
  (match mutate with
  | Some No_dedup ->
      Net.Rpc.disable_dedup := true;
      Nicfs.chaos_no_dedup := true
  | Some No_scrub -> Nicfs.chaos_no_scrub := true
  | Some Drop_entry | None -> ());
  Fun.protect ~finally:(fun () ->
      Net.Rpc.disable_dedup := false;
      Nicfs.chaos_no_dedup := false;
      Nicfs.chaos_no_scrub := false)
  @@ fun () ->
  let eng = Engine.create ~seed:spec.seed () in
  Sim.Counters.reset ();
  let trace_log = Trace.create () in
  let histories : (int, Storage.Oplog.entry list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let net = Netfault.create ~rng:(Rng.create (spec.seed lxor 0x6c6974)) in
  let completed = ref false in
  let dep_ref = ref None in
  let divergences = ref [] in
  let final_model = ref (Model.create ()) in
  let history_digests = ref [ Model.digest (Model.create ()) ] in
  Engine.spawn_root ~name:"litmus" eng (fun () ->
      let params =
        {
          Linefs.Params.default with
          Linefs.Params.chunk_bytes = 32 * 1024;
          repl_retry_timeout = Time.ms 2;
        }
      in
      let dep = D.create ~params ~apply_on_publish:true ~nodes:3 () in
      dep_ref := Some dep;
      let mgr = Cluster.Manager.create ~heartbeat_interval:(Time.ms 1) () in
      for i = 0 to D.node_count dep - 1 do
        let rt = D.node dep i in
        Cluster.Manager.register mgr ~id:i
          ~ping:(fun () -> Nicfs.ping rt.D.nicfs)
          ~on_epoch:(fun e ->
            Trace.add trace_log (Trace.Epoch e);
            Nicfs.set_epoch rt.D.nicfs e)
          ~ping_host:(fun () -> Linefs.Kworker.alive rt.D.kworker)
          ~on_service:(fun svc ->
            (match svc with
            | Cluster.Manager.Nic -> Nicfs.exit_fallback rt.D.nicfs
            | Cluster.Manager.HostFallback -> Nicfs.enter_fallback rt.D.nicfs
            | Cluster.Manager.Down -> ());
            Trace.add trace_log
              (Trace.Note (Printf.sprintf "service node %d" i));
            D.rebuild_chain dep ~up:(fun j ->
                Cluster.Manager.service mgr j <> Cluster.Manager.Down);
            D.note_service_change dep)
          ()
      done;
      Cluster.Manager.start mgr;
      Netfault.install net;
      Linefs.Lease.set_observer (fun ev ->
          Trace.add trace_log (Trace.Lease ev));
      Libfs.set_entry_observer (fun ~client e ->
          let h =
            match Hashtbl.find_opt histories client with
            | Some h -> h
            | None ->
                let h = ref [] in
                Hashtbl.replace histories client h;
                h
          in
          h := e :: !h);
      let c = D.add_client dep ~id:0 in
      List.iter
        (fun f ->
          Engine.spawn ~name:"litmus-fault" (fun () ->
              Fault.Scenario.drive_fault trace_log net dep f))
        spec.plan;
      let gap =
        let n = max 1 (List.length spec.trace.Opgen.ops) in
        Time.us
          (max 1 (int_of_float (Time.to_us_f spec.horizon /. float_of_int n)))
      in
      let iv = Ivar.create () in
      Engine.spawn ~name:"litmus-client" (fun () ->
          let m, divs =
            Exec.run ~ops:(Libfs.ops c) ~model:(Model.create ())
              ~trace:spec.trace
              ~on_step:(fun _ m ->
                history_digests := Model.digest m :: !history_digests)
              ~pace:(fun _ -> Engine.sleep gap)
              ()
          in
          final_model := m;
          divergences := divs;
          Ivar.fill iv ());
      Ivar.read iv;
      sleep_until (Plan.horizon spec.plan + Time.ms 1);
      List.iter
        (fun n ->
          let source_id =
            let rec go i =
              if i >= D.node_count dep then 0
              else if
                i <> n
                && Cluster.Manager.service mgr i <> Cluster.Manager.Down
              then i
              else go (i + 1)
            in
            go 0
          in
          ignore
            (Linefs.Recovery.run ~manager:mgr
               ~recovering:(D.node dep n).D.nicfs
               ~source:(D.node dep source_id).D.nicfs ()
              : Linefs.Recovery.stats))
        (Fault.Scenario.crashed_nodes spec.plan);
      D.flush_all dep;
      Cluster.Manager.stop mgr;
      D.stop dep;
      completed := true);
  let sim_crash =
    match Engine.run ~deadline:(Time.sec 30) eng with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  Netfault.uninstall ();
  Linefs.Lease.clear_observer ();
  Libfs.clear_entry_observer ();
  let histories =
    Hashtbl.fold (fun c h acc -> (c, List.rev !h) :: acc) histories []
    |> List.sort compare
  in
  let histories =
    match mutate with
    | Some Drop_entry -> mutate_histories histories
    | Some (No_dedup | No_scrub) | None -> histories
  in
  let model_digest = Model.digest !final_model in
  let violations, fs_digest =
    match !dep_ref with
    | None ->
        ( [ { Invariant.name = "setup"; detail = "deployment never built" } ],
          0l )
    | Some dep ->
        let prim = (D.primary dep).D.fs in
        let prim_digest = Storage.Fs_state.digest prim in
        let dead = Fault.Scenario.dead_nodes spec.plan in
        let reps =
          List.filter_map
            (fun (rt : D.node_rt) ->
              let id = rt.D.node.Hw.Node.id in
              if List.mem id dead then None else Some (id, rt.D.fs))
            (D.replicas dep)
        in
        let journals =
          List.filter_map
            (fun (rt : D.node_rt) ->
              let id = rt.D.node.Hw.Node.id in
              if List.mem id dead then None
              else Some (id, Nicfs.apply_journal rt.D.nicfs))
            (D.replicas dep)
        in
        let vs =
          Invariant.check_prefix_consistency ~histories
          @ Invariant.check_single_writer trace_log
          @ Invariant.check_no_duplicate_apply ~journals
          @
          if not !completed then []
          else
            Invariant.check_convergence ~primary:prim ~replicas:reps
            @ (if prim_digest <> model_digest then
                 [
                   {
                     Invariant.name = "model-final";
                     detail =
                       Printf.sprintf
                         "recovered primary digest %08lx, model %08lx"
                         prim_digest model_digest;
                   };
                 ]
               else [])
            @ List.filter_map
                (fun n ->
                  let d = Storage.Fs_state.digest (D.node dep n).D.fs in
                  if List.mem d !history_digests then None
                  else
                    Some
                      {
                        Invariant.name = "model-prefix";
                        detail =
                          Printf.sprintf
                            "dead node %d digest %08lx matches no model \
                             state in the trace history"
                            n d;
                      })
                dead
        in
        (vs, prim_digest)
  in
  let violations =
    match sim_crash with
    | Some msg ->
        { Invariant.name = "sim-crash"; detail = msg } :: violations
    | None ->
        if !completed then violations
        else
          {
            Invariant.name = "wedged";
            detail = "litmus did not complete before the deadline";
          }
          :: violations
  in
  {
    completed = !completed;
    divergences = !divergences;
    violations;
    model_digest;
    fs_digest;
  }

let minimize ?mutate spec =
  let trace, runs =
    Opgen.minimize spec.trace ~fails:(fun t ->
        failed (run ?mutate { spec with trace = t }))
  in
  ({ spec with trace }, runs)
