(* Benchmark harness.

   Part 1 — bechamel micro-benchmarks of the infrastructure itself: one
   [Test.make] per table/figure-bearing component, measuring the host-time
   cost of the machinery that the experiments rely on (scheduler, IR
   interpreter, AutoWatchdog analysis, context synchronisation, checker
   execution).

   Part 2 — regeneration of every table and figure of the paper (E1-E10 as
   indexed in DESIGN.md), printed in full. Absolute numbers come from the
   deterministic simulator; the shapes are what reproduce the paper. *)

open Bechamel
open Toolkit

module Sched = Wd_sim.Sched
module Vtime = Wd_sim.Time
module B = Wd_ir.Builder
module Generate = Wd_autowatchdog.Generate

(* --- micro-benchmark subjects --- *)

let bench_sched_spawn_run =
  Test.make ~name:"sim/spawn+run 100 tasks"
    (Staged.stage (fun () ->
         let s = Sched.create ~seed:1 () in
         for i = 0 to 99 do
           ignore
             (Sched.spawn ~name:(string_of_int i) s (fun () ->
                  Sched.sleep (Vtime.us 10)))
         done;
         ignore (Sched.run s)))

let bench_sched_ping_pong =
  Test.make ~name:"sim/1000 context switches"
    (Staged.stage (fun () ->
         let s = Sched.create ~seed:1 () in
         ignore
           (Sched.spawn s (fun () ->
                for _ = 1 to 1000 do
                  Sched.yield ()
                done));
         ignore (Sched.run s)))

let interp_prog =
  B.program "bench"
    ~funcs:
      [
        B.func "sum_to" ~params:[ "n" ]
          [
            B.let_ "acc" (B.i 0);
            B.let_ "i" (B.i 1);
            B.while_
              B.(v "i" <=: v "n")
              [
                B.assign "acc" B.(v "acc" +: v "i");
                B.assign "i" B.(v "i" +: i 1);
              ];
            B.return (B.v "acc");
          ];
      ]
    ~entries:[]

let bench_interp_statements =
  Test.make ~name:"ir/interpret 3000-stmt loop"
    (Staged.stage (fun () ->
         let s = Sched.create ~seed:1 () in
         let reg = Wd_env.Faultreg.create () in
         let res = Wd_ir.Runtime.create ~reg ~rng:(Wd_sim.Rng.create ~seed:2) in
         let main = Wd_ir.Interp.create ~node:"n" ~res interp_prog in
         ignore
           (Sched.spawn s (fun () ->
                ignore (Wd_ir.Interp.call main "sum_to" [ Wd_ir.Ast.VInt 1000 ])));
         ignore (Sched.run s)))

let kvs_prog = Wd_targets.Kvs.program ()
let zk_prog = Wd_targets.Zkmini.program ()

let bench_generate_kvs =
  Test.make ~name:"autowatchdog/analyze kvs"
    (Staged.stage (fun () -> ignore (Generate.analyze kvs_prog)))

let bench_generate_zk =
  Test.make ~name:"autowatchdog/analyze zkmini"
    (Staged.stage (fun () -> ignore (Generate.analyze zk_prog)))

let bench_context_sync =
  Test.make ~name:"watchdog/hook capture + context sync"
    (Staged.stage
       (let w = Wd_watchdog.Wcontext.create () in
        Wd_watchdog.Wcontext.register_unit w ~unit_id:"u" ~params:[ "a"; "b" ];
        Wd_watchdog.Wcontext.bind_hook w ~hook_id:0 ~unit_id:"u"
          ~captures:[ ("a", "ta"); ("b", "tb") ];
        let payload = Wd_ir.Ast.VBytes (Bytes.create 256) in
        fun () ->
          Wd_watchdog.Wcontext.sink w ~now:1L 0
            [ ("ta", Wd_ir.Ast.copy_value payload); ("tb", Wd_ir.Ast.VInt 1) ];
          ignore (Wd_watchdog.Wcontext.args w "u")))

let bench_checker_execution =
  Test.make ~name:"watchdog/kvs+watchdog, 2 sim-seconds"
    (Staged.stage (fun () ->
         let g = Generate.analyze kvs_prog in
         let s = Sched.create ~seed:1 () in
         let reg = Wd_env.Faultreg.create () in
         let t =
           Wd_targets.Kvs.boot ~sched:s ~reg
             ~prog:g.Generate.red.Wd_analysis.Reduction.instrumented ()
         in
         let driver = Wd_watchdog.Driver.create s in
         ignore (Generate.attach g ~sched:s ~main:t.Wd_targets.Kvs.leader ~driver);
         ignore (Wd_targets.Kvs.start t);
         Wd_watchdog.Driver.start driver;
         ignore (Sched.run ~until:(Vtime.sec 2) s)))

let bench_cluster_fleet =
  Test.make ~name:"cluster/5-node zkmini fleet, 2 sim-seconds"
    (Staged.stage (fun () ->
         let topology =
           Wd_cluster.Topology.uniform ~nodes:5 Wd_cluster.Topology.Zkmini
         in
         let w = Wd_cluster.Sim.boot ~seed:1 ~topology () in
         ignore
           (Sched.run ~until:(Vtime.sec 2) (Wd_cluster.Sim.world_sched w))))

let microbenches =
  [
    bench_sched_spawn_run;
    bench_sched_ping_pong;
    bench_interp_statements;
    bench_generate_kvs;
    bench_generate_zk;
    bench_context_sync;
    bench_checker_execution;
    bench_cluster_fleet;
  ]

let run_microbenches () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  print_endline "== micro-benchmarks (host time per run) ==\n";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name bench ->
          let est = Analyze.one ols Instance.monotonic_clock bench in
          match Analyze.OLS.estimates est with
          | Some (t :: _) -> Printf.printf "  %-45s %14.1f ns/run\n%!" name t
          | Some [] | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
        results)
    microbenches;
  print_newline ()

(* --- Part 3: --json mode — the harness performance trajectory ---

   Emits BENCH_harness.json: a jobs-scaling curve (1/2/4) for a fixed
   campaign batch (the E2 scenario sweep) with a determinism cross-check
   across widths, domain-local cache hit rates over that batch, a
   1000-world randomized fault-space sweep (worlds/s at each width, with a
   byte-identity gate), fleet-plane latencies, analysis-cache cold/hit
   times, and interpreter micro-bench throughput. Every future perf PR
   reruns this file. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let interp_call_prog =
  B.program "bench_call"
    ~funcs:
      [
        B.func "leaf" ~params:[ "x" ] [ B.return (B.v "x") ];
        B.func "call_loop" ~params:[ "n" ]
          [
            B.let_ "i" (B.i 0);
            B.while_
              B.(v "i" <: v "n")
              [
                B.call ~bind:"r" "leaf" [ B.v "i" ];
                B.assign "i" B.(v "i" +: i 1);
              ];
            B.return (B.v "i");
          ];
      ]
    ~entries:[]

(* Host seconds to interpret [fname nv] in a fresh one-task simulation on
   the given engine; returns (statements executed, wall seconds). The
   compiled form is built at [create] time, outside the measured window —
   compile cost is a one-time charge already covered by the analysis-cache
   section. *)
let interp_bench ~engine prog fname nv =
  let s = Sched.create ~seed:1 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Wd_ir.Runtime.create ~reg ~rng:(Wd_sim.Rng.create ~seed:2) in
  let main = Wd_ir.Interp.create ~engine ~node:"n" ~res prog in
  ignore
    (Sched.spawn s (fun () ->
         ignore (Wd_ir.Interp.call main fname [ Wd_ir.Ast.VInt nv ])));
  let (), secs = wall (fun () -> ignore (Sched.run s)) in
  (Wd_ir.Interp.stmts_executed main, secs)

(* (stmt_loop stmts, stmt secs, call_loop calls, call_loop stmts, call
   secs) for one engine. The call loop also reports statement throughput —
   each iteration is a handful of statements around the call, so its
   stmts/s is the "statements with call overhead in the mix" number. *)
let interp_bench_engine engine =
  let stmts, stmt_s = interp_bench ~engine interp_prog "sum_to" 100_000 in
  let calls = 30_000 in
  let call_stmts, call_s =
    interp_bench ~engine interp_call_prog "call_loop" calls
  in
  (stmts, stmt_s, calls, call_stmts, call_s)

let per_s n secs = float_of_int n /. Float.max 1e-9 secs

(* minor-allocation budget per simulated request, wd-off and wd-on *)
let alloc_budget = 30_000

(* catalog scenarios the fixed checker schedule must detect (of 23) *)
let frontier_min_detected = 22

let run_json_bench ~jobs_n () =
  let module Campaign = Wd_harness.Campaign in
  let module Interp = Wd_ir.Interp in
  let scenarios =
    List.filter
      (fun s -> s.Wd_faults.Catalog.special <> Some "crash")
      Wd_faults.Catalog.all
  in
  let cells =
    List.map (fun s -> Campaign.cell s.Wd_faults.Catalog.sid) scenarios
  in
  (* Every batch starts from cold analysis + compile caches so each
     comparison isolates one variable: domain parallelism along the jobs
     curve, the execution engine between the last two. *)
  let cold_batch ~jobs () =
    Generate.clear_cache ();
    Interp.clear_compile_cache ();
    wall (fun () -> Campaign.run_batch ~jobs cells)
  in
  let recommended = Domain.recommended_domain_count () in
  let effective j = max 1 (min j recommended) in
  (* Jobs-scaling curve: requested widths 1/2/4 (plus --jobs if it differs).
     The persistent pool clamps to the host's core count — [effective] — so
     on a small host several points coincide; the JSON records both the
     requested and the effective width. *)
  let widths = List.sort_uniq compare [ 1; 2; 4; jobs_n ] in
  Interp.set_default_engine `Compiled;
  let curve =
    List.map
      (fun j ->
        let runs, secs = cold_batch ~jobs:j () in
        (* cache traffic of this batch: cleared at batch start, so the
           counters cover exactly these cells at this width *)
        let a_hits, a_misses = Generate.cache_stats () in
        let c_hits, c_misses = Interp.compile_cache_stats () in
        (j, runs, secs, (a_hits, a_misses), (c_hits, c_misses)))
      widths
  in
  let runs1, secs1, a_cache_n, c_cache_n =
    match (curve, List.rev curve) with
    | (_, r1, s1, _, _) :: _, (_, _, _, a_n, c_n) :: _ -> (r1, s1, a_n, c_n)
    | _ -> assert false
  in
  let secs_n =
    match List.find_opt (fun (j, _, _, _, _) -> j = jobs_n) curve with
    | Some (_, _, s, _, _) -> s
    | None -> secs1
  in
  Interp.set_default_engine `Treewalk;
  let runs_tw, secs_tw = cold_batch ~jobs:jobs_n () in
  Interp.set_default_engine `Compiled;
  let deterministic =
    List.for_all (fun (_, runs, _, _, _) -> runs = runs1) curve
  in
  let engines_identical = runs1 = runs_tw in
  (* randomized fault-space sweep (E20 grid) at each width, cold caches,
     byte-identity across widths checked on the full outcome lists *)
  let module Sweep = Wd_harness.Sweep in
  let sweep_worlds = 1000 in
  let sweep_seed = Wd_harness.Experiments.base_seed () in
  let sweep_runs =
    List.map
      (fun j ->
        Generate.clear_cache ();
        Interp.clear_compile_cache ();
        let (summary, outcomes), secs =
          wall (fun () -> Sweep.run ~jobs:j ~seed:sweep_seed ~worlds:sweep_worlds ())
        in
        (j, summary, outcomes, secs))
      widths
  in
  let sweep_summary, sweep_outcomes1, sweep_secs1 =
    match sweep_runs with
    | (_, s, o, secs) :: _ -> (s, o, secs)
    | [] -> assert false
  in
  let sweep_identical =
    List.for_all (fun (_, _, o, _) -> o = sweep_outcomes1) sweep_runs
  in
  (* checker-generation race (E21): mine the inferred generation, race it
     against the mimic generation across the catalog in three deployments,
     and gate on mining determinism (digest at width 1 = digest at width
     N) and inferred accuracy (zero fault-free false positives) *)
  let module Experiments = Wd_harness.Experiments in
  let module Inference = Wd_harness.Inference in
  let race = Experiments.e21_run () in
  let mined_w1 = Inference.mine_and_synth ~jobs:1 () in
  let mining_deterministic =
    String.equal race.Experiments.e21_model_digest
      mined_w1.Inference.md_digest
  in
  let race_family d fam =
    List.find
      (fun (f : Experiments.e21_family) -> f.Experiments.e21f_family = fam)
      d.Experiments.e21d_families
  in
  let inferred_only =
    List.find
      (fun (d : Experiments.e21_deploy) ->
        d.Experiments.e21d_label = "inferred-only")
      race.Experiments.e21_deploys
  in
  let inferred_alone = race_family inferred_only "inferred" in
  (* analysis cache: cold analysis vs memoised hit *)
  Generate.clear_cache ();
  let _, cold_s = wall (fun () -> ignore (Generate.analyze_cached zk_prog)) in
  let _, hit_s = wall (fun () -> ignore (Generate.analyze_cached zk_prog)) in
  (* interpreter micro-benches, one row per engine: straight-line
     statements and call-heavy *)
  let c_stmts, c_stmt_s, c_calls, c_cstmts, c_call_s =
    interp_bench_engine `Compiled
  in
  let t_stmts, t_stmt_s, t_calls, t_cstmts, t_call_s =
    interp_bench_engine `Treewalk
  in
  let stmt_speedup = per_s c_stmts c_stmt_s /. per_s t_stmts t_stmt_s in
  let call_speedup = per_s c_calls c_call_s /. per_s t_calls t_call_s in
  (* heavy-traffic load plane (E22): each workload at >= 10^6 completed
     requests across its deployment rows, sized so the zkmini/cstore
     totals clear the bar with the detection runs included *)
  let module Loadgen = Wd_harness.Loadgen in
  let load_requests = 350_000 in
  let load, load_s =
    wall (fun () -> Experiments.e22_run ~requests:load_requests ())
  in
  (* allocation discipline (v6): minor-heap words per completed request on
     the zkmini closed loop, wd-off vs wd-on. Must run inline on this
     domain — Gc.minor_words is per-domain — and is deterministic for the
     fixed seed, so the gate below cannot flap. *)
  let alloc_rows, alloc_s = wall (fun () -> Experiments.e22_alloc ()) in
  (* overhead vs detection latency (E23) under the fixed checker schedule,
     across the fault catalog and the load plane *)
  let frontier, frontier_s = wall (fun () -> Experiments.e23_run ()) in
  (* the snapshot: one JSON value; [f d] keeps a field at [d] decimals *)
  let module J = Wd_harness.Json in
  let int k v = (k, J.Int v) and str k v = (k, J.String v) in
  let bool k v = (k, J.Bool v) and f d k v = (k, J.Float (d, v)) in
  let obj k fields = (k, J.Obj fields) in
  let rows k row xs = (k, J.List (List.map (fun x -> J.Obj (row x)) xs)) in
  let cache k (hits, misses) =
    obj k
      [
        int "hits" hits;
        int "misses" misses;
        f 3 "hit_rate"
          (float_of_int hits /. Float.max 1. (float_of_int (hits + misses)));
      ]
  in
  let gc = Gc.get () in
  (* fleet plane: one limplock cell, one leader-failover cell, and the two
     correlated cells on the asymmetric 9-node heterogeneous fabric; the
     latencies are sim-time (deterministic), the wall clocks are host *)
  let module Csim = Wd_cluster.Sim in
  let fleet_cell csid = wall (fun () -> Csim.run csid) in
  let hetero_cell csid =
    wall (fun () ->
        Csim.run
          ~cfg:
            {
              Csim.default_config with
              topology = Wd_cluster.Topology.hetero9 ();
            }
          csid)
  in
  let limp, limp_s = fleet_cell "fleet-limplock" in
  let failover, failover_s = fleet_cell "fleet-leader-limplock" in
  let alp, alp_s = hetero_cell "fleet-limplock-partition" in
  let asl, asl_s = hetero_cell "fleet-slow-link-gray" in
  let ms = function Some v -> Int64.to_float v /. 1e6 | None -> -1. in
  let converge (r : Csim.result) =
    match r.Csim.cr_converged_at with
    | Some at when at > r.Csim.cr_inject_at ->
        Some (Int64.sub at r.Csim.cr_inject_at)
    | Some _ | None -> None
  in
  let fleet_times (r : Csim.result) wall_s =
    [
      f 3 "wall_s" wall_s;
      f 1 "detect_ms" (ms r.Csim.cr_first_latency);
      f 1 "mttr_ms" (ms r.Csim.cr_first_recovery_latency);
    ]
  in
  let fleet_row k (r : Csim.result) wall_s =
    obj k (fleet_times r wall_s @ [ bool "ok" r.Csim.cr_as_expected ])
  in
  let engine_rows k stmts stmt_s calls cstmts call_s =
    let agg_stmts = stmts + cstmts and agg_s = stmt_s +. call_s in
    obj k
      [
        obj "stmt_loop"
          [
            int "stmts" stmts;
            f 3 "wall_s" stmt_s;
            f 0 "stmts_per_s" (per_s stmts stmt_s);
          ];
        obj "call_loop"
          [
            int "calls" calls;
            f 3 "wall_s" call_s;
            f 0 "calls_per_s" (per_s calls call_s);
            int "stmts" cstmts;
            f 0 "stmts_per_s" (per_s cstmts call_s);
          ];
        obj "aggregate"
          [
            int "stmts" agg_stmts;
            f 3 "wall_s" agg_s;
            f 0 "stmts_per_s" (per_s agg_stmts agg_s);
            f 1 "pct_of_1e8_target" (100. *. per_s agg_stmts agg_s /. 1e8);
          ];
      ]
  in
  let sw = sweep_summary in
  let median_ms (l : Wd_harness.Metrics.latency_stats) =
    if l.Wd_harness.Metrics.ls_count = 0 then -1.
    else Int64.to_float l.Wd_harness.Metrics.ls_median /. 1e6
  in
  let json =
    J.Obj
      [
        str "schema" "wd-bench-harness/v8";
        obj "host"
          [
            int "recommended_domains" recommended;
            obj "gc"
              [
                int "minor_heap_words" gc.Gc.minor_heap_size;
                int "space_overhead" gc.Gc.space_overhead;
              ];
          ];
        obj "campaign_e2"
          [
            int "scenarios" (List.length cells);
            rows "jobs_curve"
              (fun (j, _, secs, _, _) ->
                [
                  int "jobs" j;
                  int "effective_jobs" (effective j);
                  f 3 "wall_s" secs;
                  f 2 "speedup" (secs1 /. Float.max 1e-9 secs);
                ])
              curve;
            bool "deterministic" deterministic;
            cache "analysis_cache" a_cache_n;
            cache "compile_cache" c_cache_n;
            f 3 "treewalk_jobsN_wall_s" secs_tw;
            f 2 "engine_speedup" (secs_tw /. Float.max 1e-9 secs_n);
            bool "engines_identical" engines_identical;
          ];
        obj "sweep"
          [
            int "worlds" sweep_worlds;
            int "seed" sweep_seed;
            rows "jobs_curve"
              (fun (j, _, _, secs) ->
                [
                  int "jobs" j;
                  int "effective_jobs" (effective j);
                  f 3 "wall_s" secs;
                  f 1 "worlds_per_s"
                    (float_of_int sweep_worlds /. Float.max 1e-9 secs);
                  f 2 "speedup" (sweep_secs1 /. Float.max 1e-9 secs);
                ])
              sweep_runs;
            bool "byte_identical" sweep_identical;
            str "digest" sw.Sweep.s_digest;
            obj "composition"
              [
                int "scenario" sw.Sweep.s_scenario_worlds;
                int "fault_free" sw.Sweep.s_fault_free_worlds;
                int "fleet" sw.Sweep.s_fleet_worlds;
              ];
            obj "oracle"
              [
                int "ok" sw.Sweep.s_ok;
                int "expect_detect" sw.Sweep.s_expect_detect;
                int "detected" sw.Sweep.s_detected;
                int "unexpected_detect" sw.Sweep.s_unexpected_detect;
                int "false_alarms" sw.Sweep.s_false_alarms;
              ];
          ];
        (* asymmetric-fabric detection latency and MTTR: numbers a
           performance or fabric change must not regress *)
        obj "fleet"
          [
            fleet_row "limplock" limp limp_s;
            obj "leader_failover"
              (fleet_times failover failover_s
              @ [
                  f 1 "election_converge_ms" (ms (converge failover));
                  int "elections" failover.Csim.cr_elections;
                ]);
            fleet_row "asym9_limplock_partition" alp alp_s;
            fleet_row "asym9_slow_link_gray" asl asl_s;
          ];
        (* E21 rows: per-deployment, per-family coverage / median latency /
           false positives, plus the deterministic sim-event overhead *)
        obj "race"
          [
            int "mined_runs" race.Experiments.e21_mined_runs;
            int "mined_events" race.Experiments.e21_mined_events;
            str "model_digest" race.Experiments.e21_model_digest;
            bool "mining_deterministic" mining_deterministic;
            obj "invariants"
              (List.map
                 (fun (sys, n) -> int sys n)
                 race.Experiments.e21_invariants);
            rows "deploys"
              (fun (d : Experiments.e21_deploy) ->
                [
                  str "label" d.Experiments.e21d_label;
                  int "any_detected" d.Experiments.e21d_any;
                  int "total" d.Experiments.e21d_total;
                  int "false_positives" d.Experiments.e21d_fp;
                  int "checkers" d.Experiments.e21d_checkers;
                  int "sim_events" d.Experiments.e21d_sim_events;
                  f 1 "overhead_pct" d.Experiments.e21d_overhead_pct;
                  obj "families"
                    (List.map
                       (fun (fam : Experiments.e21_family) ->
                         obj fam.Experiments.e21f_family
                           [
                             int "detected" fam.Experiments.e21f_detected;
                             int "total" fam.Experiments.e21f_total;
                             f 1 "median_ms"
                               (median_ms fam.Experiments.e21f_latency);
                             int "fp" fam.Experiments.e21f_fp;
                           ])
                       d.Experiments.e21d_families);
                ])
              race.Experiments.e21_deploys;
          ];
        (* E22 rows: heavy-traffic load per workload and deployment;
           requests, accuracy, virtual-time throughput/percentiles
           (host-independent), the watchdog's sim-event overhead and latency
           inflation vs the wd-off row, and detection latency of a mid-load
           fault *)
        obj "load"
          [
            int "requests_per_row" load_requests;
            int "total_requests" load.Experiments.e22_total_requests;
            f 1 "wall_s" load_s;
            rows "workloads"
              (fun (w : Experiments.e22_workload) ->
                [
                  str "label" w.Experiments.e22w_label;
                  str "gen" w.Experiments.e22w_gen;
                  int "requests" w.Experiments.e22w_requests;
                  rows "rows"
                    (fun (row : Experiments.e22_row) ->
                      let l = row.Experiments.e22r_load in
                      let us t = Int64.to_float t /. 1e3 in
                      [
                        str "deploy" row.Experiments.e22r_deploy;
                        int "requests" l.Loadgen.lr_requests;
                        f 4 "ok_ratio" (Loadgen.success_ratio l);
                        int "shed" l.Loadgen.lr_shed;
                        f 0 "throughput_rps" (Loadgen.throughput_rps l);
                        f 1 "p50_us" (us l.Loadgen.lr_p50);
                        f 1 "p99_us" (us l.Loadgen.lr_p99);
                        int "sim_events" row.Experiments.e22r_sim_events;
                        f 2 "overhead_pct" row.Experiments.e22r_overhead_pct;
                        f 3 "p50_x" row.Experiments.e22r_p50_x;
                        f 3 "p99_x" row.Experiments.e22r_p99_x;
                        f 1 "detect_ms" (ms row.Experiments.e22r_detect);
                      ])
                    w.Experiments.e22w_rows;
                ])
              load.Experiments.e22_workloads;
          ];
        (* v6: minor-allocation per simulated request, the number the
           allocation-discipline refactor is accountable for *)
        obj "alloc"
          [
            str "workload" "zkmini";
            f 1 "wall_s" alloc_s;
            int "budget_bytes_per_req" alloc_budget;
            rows "rows"
              (fun (r : Experiments.e22_alloc_row) ->
                [
                  str "deploy" r.Experiments.e22a_deploy;
                  int "requests" r.Experiments.e22a_requests;
                  f 1 "minor_words_per_req" r.Experiments.e22a_words_per_req;
                  f 0 "bytes_per_req" r.Experiments.e22a_bytes_per_req;
                ])
              alloc_rows;
          ];
        (* v8: E23's one row, the fixed checker schedule's overhead and
           detection latency *)
        obj "frontier"
          [
            int "requests_per_run" frontier.Experiments.e23_requests;
            int "scenarios" frontier.Experiments.e23_scenarios;
            f 1 "wall_s" frontier_s;
            rows "rows"
              (fun (r : Experiments.e23_row) ->
                [
                  str "mode" r.Experiments.e23f_mode;
                  f 3 "overhead_pct" r.Experiments.e23f_overhead_pct;
                  int "sched_events" r.Experiments.e23f_sched_events;
                  f 3 "p99_x" r.Experiments.e23f_p99_x;
                  f 1 "load_detect_ms" (ms r.Experiments.e23f_load_detect);
                  int "detected" r.Experiments.e23f_detected;
                  int "catalog" r.Experiments.e23f_catalog;
                  f 1 "worst_detect_ms" (ms r.Experiments.e23f_worst_detect);
                  f 1 "mean_detect_ms" (ms r.Experiments.e23f_mean_detect);
                  int "runs" r.Experiments.e23f_runs;
                ])
              frontier.Experiments.e23_rows;
          ];
        obj "analysis_cache"
          [ f 3 "cold_ms" (1e3 *. cold_s); f 4 "hit_ms" (1e3 *. hit_s) ];
        obj "interp"
          [
            engine_rows "compiled" c_stmts c_stmt_s c_calls c_cstmts c_call_s;
            engine_rows "treewalk" t_stmts t_stmt_s t_calls t_cstmts t_call_s;
            obj "engine_speedup"
              [ f 2 "stmt_loop" stmt_speedup; f 2 "call_loop" call_speedup ];
          ];
      ]
  in
  let json = J.to_string json ^ "\n" in
  let oc = open_out "BENCH_harness.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  Printf.printf "-> wrote BENCH_harness.json\n%!";
  (* The exit gates. Each prints its reason and exits 1 on a miss, after
     the snapshot is written. *)
  let fail msg =
    prerr_endline ("ERROR: " ^ msg);
    exit 1
  in
  let find what p xs =
    match List.find_opt p xs with Some x -> x | None -> fail (what ^ " missing")
  in
  if not deterministic then
    fail "campaign results differ across jobs widths";
  if not engines_identical then
    fail "compiled and treewalk campaign results differ";
  if not sweep_identical then fail "sweep outcomes differ across jobs widths";
  if not mining_deterministic then
    fail "inferred-model digest differs across jobs widths";
  if inferred_alone.Experiments.e21f_fp > 0 then
    fail "inferred checkers false-alarmed on fault-free runs";
  if
    2 * inferred_alone.Experiments.e21f_detected
    < inferred_alone.Experiments.e21f_total
  then fail "inferred-only coverage fell below half the catalog";
  (* jobs-scaling gate: any campaign point that actually got >= 2 domains
     must show real speedup over the width-1 run; on a single-core host
     every point is effective width 1 and the gate is vacuous *)
  List.iter
    (fun (j, _, secs, _, _) ->
      if effective j >= 2 && secs1 /. Float.max 1e-9 secs < 1.2 then
        fail
          (Printf.sprintf "campaign jobs curve at effective width %d speedup \
                           %.2f < 1.2"
             (effective j)
             (secs1 /. Float.max 1e-9 secs)))
    curve;
  (* load-plane gates: the gated rows of the v5 schema. Single-node
     workloads must field all three deployments at >= 10^6 completed
     requests with a clean oracle (every request answered, nothing shed)
     and a measured detection latency under load; the fleet row must be
     present and clean. *)
  let check_row ~wl ~need_detect (row : Experiments.e22_row) =
    let l = row.Experiments.e22r_load in
    let at = wl ^ "/" ^ row.Experiments.e22r_deploy in
    if Loadgen.success_ratio l < 0.99 then
      fail
        (Printf.sprintf "load gate: %s ok ratio %.4f < 0.99" at
           (Loadgen.success_ratio l));
    if l.Loadgen.lr_shed > 0 then
      fail (Printf.sprintf "load gate: %s shed %d requests" at l.Loadgen.lr_shed);
    if need_detect && row.Experiments.e22r_detect = None then
      fail ("load gate: " ^ at ^ " did not detect the mid-load fault")
  in
  List.iter
    (fun wl ->
      let w =
        find
          ("load gate: " ^ wl ^ " workload row")
          (fun (w : Experiments.e22_workload) -> w.Experiments.e22w_label = wl)
          load.Experiments.e22_workloads
      in
      if w.Experiments.e22w_requests < 1_000_000 then
        fail
          (Printf.sprintf "load gate: %s completed %d requests < 1e6" wl
             w.Experiments.e22w_requests);
      List.iter
        (fun deploy ->
          find
            ("load gate: " ^ wl ^ "/" ^ deploy ^ " row")
            (fun (r : Experiments.e22_row) -> r.Experiments.e22r_deploy = deploy)
            w.Experiments.e22w_rows
          |> check_row ~wl ~need_detect:(deploy <> "wd-off"))
        [ "wd-off"; "wd-on"; "inferred-on" ])
    [ "zkmini"; "cstore" ];
  let fleet =
    find "load gate: fleet workload row"
      (fun (w : Experiments.e22_workload) -> w.Experiments.e22w_gen = "fleet")
      load.Experiments.e22_workloads
  in
  List.iter
    (check_row ~wl:fleet.Experiments.e22w_label ~need_detect:false)
    fleet.Experiments.e22w_rows;
  (* latency-identity gate: the watchdog runs off the request path, so in
     virtual time its presence must not move client percentiles at all —
     wd-on p50/p99 bit-identical to the wd-off baseline *)
  List.iter
    (fun (w : Experiments.e22_workload) ->
      if w.Experiments.e22w_gen <> "fleet" then
        List.iter
          (fun (row : Experiments.e22_row) ->
            if
              row.Experiments.e22r_deploy = "wd-on"
              && (row.Experiments.e22r_p50_x <> 1.
                 || row.Experiments.e22r_p99_x <> 1.)
            then
              fail
                (Printf.sprintf
                   "load gate: %s/wd-on p50/p99 not bit-identical to wd-off \
                    (x%.6f/x%.6f)"
                   w.Experiments.e22w_label row.Experiments.e22r_p50_x
                   row.Experiments.e22r_p99_x))
          w.Experiments.e22w_rows)
    load.Experiments.e22_workloads;
  (* allocation gates (v6): the refactor's budget — wd-off and wd-on minor
     allocation per simulated request stays within 30 KB (the seed spent
     ~55 KB), and no row is an empty run *)
  List.iter
    (fun (r : Experiments.e22_alloc_row) ->
      if r.Experiments.e22a_requests <= 0 then
        fail
          ("alloc gate: " ^ r.Experiments.e22a_deploy
         ^ " row completed no requests"))
    alloc_rows;
  List.iter
    (fun deploy ->
      let r =
        find
          ("alloc gate: " ^ deploy ^ " row")
          (fun (r : Experiments.e22_alloc_row) ->
            r.Experiments.e22a_deploy = deploy)
          alloc_rows
      in
      if r.Experiments.e22a_bytes_per_req > float_of_int alloc_budget then
        fail
          (Printf.sprintf "alloc gate: %s %.0f bytes/request exceeds the %d \
                           budget"
             deploy r.Experiments.e22a_bytes_per_req alloc_budget))
    [ "wd-off"; "wd-on" ];
  (* frontier gates (v8): the fixed row is present, its checkers ran on
     the load plane, it covers at least [frontier_min_detected] catalog
     scenarios, and it has a worst-case detection latency *)
  let fx =
    find "frontier gate: fixed row"
      (fun (r : Experiments.e23_row) -> r.Experiments.e23f_mode = "fixed")
      frontier.Experiments.e23_rows
  in
  if fx.Experiments.e23f_runs <= 0 then
    fail "frontier gate: fixed row: no checker ran on the load plane";
  if fx.Experiments.e23f_detected < frontier_min_detected then
    fail
      (Printf.sprintf "frontier gate: fixed catalog coverage %d/%d below %d"
         fx.Experiments.e23f_detected fx.Experiments.e23f_catalog
         frontier_min_detected);
  match fx.Experiments.e23f_worst_detect with
  | Some f when f > 0L -> ()
  | _ -> fail "frontier gate: worst-case detection latency missing"

let () =
  Wd_harness.Cli.check_env ();
  (* same --jobs/--seed flags as repro, plus --json, via the shared scanner
     (bechamel owns argv, so no cmdliner here) *)
  let opts =
    match Wd_harness.Cli.scan (List.tl (Array.to_list Sys.argv)) with
    | Ok o -> o
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  Wd_harness.Cli.apply_opts opts;
  if opts.Wd_harness.Cli.o_json then
    let jobs_n =
      match opts.Wd_harness.Cli.o_jobs with
      | Some n -> n
      | None -> Wd_parallel.Pool.default_jobs ()
    in
    run_json_bench ~jobs_n ()
  else begin
    run_microbenches ();
    (* Part 2: every table and figure of the paper. *)
    List.iter
      (fun (e : Wd_harness.Experiments.t) ->
        Printf.printf "\n================ %s ================\n\n%!"
          e.Wd_harness.Experiments.ex_name;
        print_string (e.Wd_harness.Experiments.ex_render ()))
      Wd_harness.Experiments.all
  end
