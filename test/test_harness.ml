(* End-to-end experiment tests: the campaign machinery reproduces the
   paper's qualitative claims. These run whole-system simulations with
   shortened windows to keep `dune runtest` snappy. *)

open Wd_harness
module Time = Wd_sim.Time

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let quick_cfg =
  { Campaign.default_config with Campaign.warmup = Time.sec 6; observe = Time.sec 20 }

let outcome r name = List.assoc name r.Campaign.r_outcomes

let test_zk2201_story () =
  let r = Campaign.run_scenario ~cfg:quick_cfg "zk-2201" in
  let mimic = outcome r "mimic" in
  check "mimic detects" true mimic.Campaign.o_detected;
  check "mimic pinpoints the commit path" true
    (mimic.Campaign.o_pinpoint = Some Campaign.Exact);
  check "within ten seconds" true
    (match mimic.Campaign.o_latency with
    | Some l -> l < Time.sec 10
    | None -> false);
  check "heartbeat blind" false (outcome r "heartbeat").Campaign.o_detected;
  check "no false alarms before injection" true (r.Campaign.r_pre_inject_reports = 0)

let test_silent_stuck_only_mimic () =
  let r = Campaign.run_scenario ~cfg:quick_cfg "cs-compaction-stuck" in
  check "mimic detects" true (outcome r "mimic").Campaign.o_detected;
  check "probe blind" false (outcome r "probe").Campaign.o_detected;
  check "heartbeat blind" false (outcome r "heartbeat").Campaign.o_detected;
  check "observer blind (clients unaffected)" false
    (outcome r "observer").Campaign.o_detected;
  (* the gray failure leaves the workload healthy *)
  check "clients fine" true (r.Campaign.r_workload_ok_ratio > 0.99)

let test_crash_favors_extrinsic () =
  let r = Campaign.run_scenario ~cfg:quick_cfg "kvs-crash" in
  check "heartbeat detects crash" true (outcome r "heartbeat").Campaign.o_detected;
  check "watchdog died with the process" false (outcome r "mimic").Campaign.o_detected

let test_corruption_needs_mimic () =
  let r = Campaign.run_scenario ~cfg:quick_cfg "kvs-seg-corrupt" in
  check "mimic detects" true (outcome r "mimic").Campaign.o_detected;
  check "exact pinpoint" true
    ((outcome r "mimic").Campaign.o_pinpoint = Some Campaign.Exact);
  check "signal blind" false (outcome r "signal").Campaign.o_detected

let test_fault_free_accuracy () =
  List.iter
    (fun sys ->
      (* full default window: long enough for progress-checker staleness
         thresholds, which a shortened window would never exercise *)
      let ff = Campaign.run_fault_free sys in
      check_int (sys ^ " mimic clean") 0 ff.Campaign.ff_mimic_fp;
      check_int (sys ^ " probe clean") 0 ff.Campaign.ff_probe_fp;
      check_int (sys ^ " hb clean") 0 ff.Campaign.ff_heartbeat_fp;
      check (sys ^ " workload healthy") true (ff.Campaign.ff_workload_ok_ratio > 0.95))
    Systems.all_systems

let test_context_ablation () =
  let rows = Experiments.e8_run () in
  match rows with
  | [ generated; naive ] ->
      check_int "context sync: no false alarms" 0 generated.Experiments.e8_false_alarms;
      check "context sync: not-ready checkers skip" true
        (generated.Experiments.e8_skips > 0);
      check "naive checkers raise spurious alarms" true
        (naive.Experiments.e8_false_alarms > 0)
  | _ -> Alcotest.fail "two rows"

let test_isolation_properties () =
  let r = Experiments.e10_run () in
  check "scratch namespace disjoint" true r.Experiments.e10_scratch_disjoint;
  check "driver survives crashing checker" true r.Experiments.e10_driver_survives;
  check "main program unperturbed" true r.Experiments.e10_main_unperturbed

let test_generation_stats () =
  let rows = Experiments.e6_run () in
  check_int "five targets" 5 (List.length rows);
  List.iter
    (fun (name, (g : Wd_autowatchdog.Generate.generated), _ms) ->
      let s = g.Wd_autowatchdog.Generate.red.Wd_analysis.Reduction.stats in
      check (name ^ " checkers generated") true (s.Wd_analysis.Reduction.unit_count > 0);
      check
        (name ^ " reduction shrinks the program")
        true
        (s.Wd_analysis.Reduction.reduced_stmts < s.Wd_analysis.Reduction.total_stmts))
    rows

let test_classify_checker () =
  check "probe" true (Campaign.classify_checker "probe:x" = `Probe);
  check "signal" true (Campaign.classify_checker "signal:y" = `Signal);
  check "mimic unit" true (Campaign.classify_checker "save__u0" = `Mimic);
  check "naive counts as mimic" true (Campaign.classify_checker "naive:u" = `Mimic)

let test_scenario_catalog_consistent () =
  List.iter
    (fun s ->
      check
        (s.Wd_faults.Catalog.sid ^ " system known")
        true
        (List.mem s.Wd_faults.Catalog.system Systems.all_systems);
      (* ground-truth functions must exist in the target program *)
      match s.Wd_faults.Catalog.truth_func with
      | None -> ()
      | Some f ->
          let prog =
            match s.Wd_faults.Catalog.system with
            | "kvs" -> Wd_targets.Kvs.program ()
            | "zkmini" -> Wd_targets.Zkmini.program ()
            | "dfsmini" -> Wd_targets.Dfsmini.program ()
            | "cstore" -> Wd_targets.Cstore.program ()
            | "mqbroker" -> Wd_targets.Mqbroker.program ()
            | _ -> assert false
          in
          check (s.Wd_faults.Catalog.sid ^ " truth exists") true
            (Wd_ir.Ast.has_func prog f))
    Wd_faults.Catalog.all

(* Full-catalog conformance: every scenario's measured detections match its
   paper-informed prediction (the "as predicted" column of E2). *)
let test_catalog_conformance () =
  List.iter
    (fun s ->
      if s.Wd_faults.Catalog.special <> Some "crash" then begin
        (* slow-building faults (the leak) need the full observation
           window, so this one uses the default campaign config *)
        let r = Campaign.run_scenario s.Wd_faults.Catalog.sid in
        check
          (s.Wd_faults.Catalog.sid ^ " as predicted")
          true
          (Experiments.e2_matches_expectation r)
      end)
    Wd_faults.Catalog.all

(* Load plane: a closed-loop run is a pure function of (seed, workload) —
   every counter and percentile bit-identical across repeats — and an
   open-loop run offered more than the system can absorb sheds the excess
   instead of queueing without bound. *)
let load_run gen =
  let sched = Wd_sim.Sched.create ~seed:9 () in
  let reg = Wd_env.Faultreg.create () in
  let booted =
    Systems.boot ~sched ~reg ~mode:Systems.Wd_generated "kvs"
  in
  Loadgen.drive (gen sched booted)

let test_loadgen_deterministic () =
  let closed sched (b : Systems.booted) =
    Loadgen.spawn_closed ~sched ~clients:8 ~think:(Wd_sim.Time.us 100)
      ~requests:3_000 ~op:b.Systems.b_client ()
  in
  let r1 = load_run closed and r2 = load_run closed in
  (* lr_wall_s is host time — everything else must be bit-identical *)
  check "deterministic across repeats" true
    ({ r1 with Loadgen.lr_wall_s = 0. } = { r2 with Loadgen.lr_wall_s = 0. });
  check "all requests completed" true (r1.Loadgen.lr_requests = 3_000);
  check "all ok" true (r1.Loadgen.lr_ok = 3_000);
  check "p50 <= p99" true (r1.Loadgen.lr_p50 <= r1.Loadgen.lr_p99);
  check "p99 <= max" true (r1.Loadgen.lr_p99 <= r1.Loadgen.lr_max);
  check "positive throughput" true (Loadgen.throughput_rps r1 > 0.)

let test_loadgen_open_sheds () =
  let open_ sched (b : Systems.booted) =
    (* far above any single node's capacity, tiny in-flight window *)
    Loadgen.spawn_open ~sched ~rate_rps:500_000 ~max_inflight:4
      ~requests:5_000 ~op:b.Systems.b_client ()
  in
  let r = load_run open_ in
  check "accounted every arrival" true
    (r.Loadgen.lr_requests + r.Loadgen.lr_shed = 5_000);
  check "overload sheds" true (r.Loadgen.lr_shed > 0)

(* The kernel schedule itself, pinned: a zkmini wd-on closed loop and a
   cstore open loop through [Loadgen] on seed 1. Any change to the order
   in which the kernel fires timers or runs tasks moves the event and
   switch counts, the final clock or the latency percentiles. The
   [loadgen deterministic] test above only compares two runs of the same
   code. *)
let pinned_load system gen =
  let sched = Wd_sim.Sched.create ~seed:1 () in
  let reg = Wd_env.Faultreg.create () in
  let b = Systems.boot ~sched ~reg ~mode:Systems.Wd_generated system in
  let r = Loadgen.drive (gen sched b) in
  let spawned, switches, events = Wd_sim.Sched.stats sched in
  ( [ spawned; switches; events; Wd_sim.Sched.timer_count sched ],
    Wd_sim.Sched.now sched,
    [
      r.Loadgen.lr_ok;
      Int64.to_int r.Loadgen.lr_p50;
      Int64.to_int r.Loadgen.lr_p99;
    ],
    b.Systems.b_res )

(* Both pinned runs are shared by the kernel-schedule and map-contents
   tests, so each load runs once per test binary. *)
let pinned_zk =
  lazy
    (pinned_load "zkmini" (fun sched b ->
         Loadgen.spawn_closed ~sched ~clients:32 ~think:(Time.us 50)
           ~requests:2_000 ~op:b.Systems.b_client ()))

let pinned_cstore =
  lazy
    (pinned_load "cstore" (fun sched b ->
         Loadgen.spawn_open ~sched ~rate_rps:8_000 ~max_inflight:512
           ~requests:2_000 ~op:b.Systems.b_client ()))

let test_kernel_schedule_pinned () =
  let ints = Alcotest.(list int) in
  let counts, now, lat, _ = Lazy.force pinned_zk in
  Alcotest.check ints "zkmini spawned/switches/events/timers"
    [ 56; 21_338; 36_275; 8_374 ] counts;
  Alcotest.(check int64) "zkmini final clock" 400_000_000L now;
  Alcotest.check ints "zkmini ok/p50/p99" [ 2_000; 4_194_304; 4_718_592 ] lat;
  let counts, now, lat, _ = Lazy.force pinned_cstore in
  Alcotest.check ints "cstore spawned/switches/events/timers"
    [ 2_027; 10_789; 14_537; 3_367 ] counts;
  Alcotest.(check int64) "cstore final clock" 400_000_000L now;
  Alcotest.check ints "cstore ok/p50/p99" [ 2_000; 106_496; 229_376 ] lat

(* The IR maps themselves, pinned after the same two runs: entry count
   and the [hash] primitive over [serialize] of each map global.
   [serialize] prints the entries in list order, so any change to how the
   [map_*] primitives build or reorder a VMap (not just to what they
   return) moves these. *)
let map_pin res global =
  let open Wd_ir in
  let m = Runtime.global res global in
  match
    ( Prims.apply "map_len" [ m ],
      Prims.apply "hash" [ Prims.apply "serialize" [ m ] ] )
  with
  | Ast.VInt len, Ast.VInt h -> (global, len, h)
  | _ -> Alcotest.failf "%s: map_len/hash not ints" global

let test_map_contents_pinned () =
  let pins run globals =
    let _, _, _, res = Lazy.force run in
    List.map (map_pin res) globals
  in
  let t = Alcotest.(list (triple string int int)) in
  Alcotest.check t "zkmini len/hash"
    [ ("zk.tree", 68, 1492120519286681914) ]
    (pins pinned_zk [ "zk.tree" ]);
  Alcotest.check t "cstore len/hash"
    [
      ("cs.memtable", 1, 1611849889008760976);
      ("cs.sstable_index", 132, 1664698166795662190);
    ]
    (pins pinned_cstore [ "cs.memtable"; "cs.sstable_index" ])

let test_tables_render () =
  let text =
    Tables.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check "renders" true (String.length text > 0);
  check "has rules" true (String.contains text '+')

(* --- environment and argv validation ---

   Malformed WD_* values and unknown flags must come back as [Error]
   naming the culprit, so the front ends can print it and exit 2 instead
   of dying on an uncaught exception. *)

(* Run [f] with [var] set to [value], restoring the previous value (or the
   empty string, which the loader reads as unset) afterwards. *)
let with_env var value f =
  let prev = Option.value (Sys.getenv_opt var) ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv var prev)
    (fun () ->
      Unix.putenv var value;
      f ())

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_env_error var value =
  match with_env var value Wd_config.Env.load with
  | Ok _ -> Alcotest.failf "%s=%s accepted" var value
  | Error msg -> check (var ^ " named in error") true (contains ~sub:var msg)

let test_env_rejects_malformed () =
  check_env_error "WD_JOBS" "abc";
  check_env_error "WD_JOBS" "0";
  check_env_error "WD_ENGINE" "bogus";
  match with_env "WD_ENGINE" "treewalk" Wd_config.Env.load with
  | Ok e -> check "treewalk parsed" true (e.Wd_config.Env.engine = Some `Treewalk)
  | Error msg -> Alcotest.fail msg

let test_scan_rejects_unknown () =
  (match Cli.scan [ "--jobs"; "2"; "--json"; "--seed"; "7" ] with
  | Ok o ->
      check "json" true o.Cli.o_json;
      check "jobs" true (o.Cli.o_jobs = Some 2);
      check "seed" true (o.Cli.o_seed = Some 7)
  | Error msg -> Alcotest.fail msg);
  check "--engine rejected" true
    (Result.is_error (Cli.scan [ "--engine"; "treewalk" ]));
  check "bad --jobs rejected" true (Result.is_error (Cli.scan [ "--jobs"; "x" ]))

let () =
  Alcotest.run "wd_harness"
    [
      ( "campaign",
        [
          Alcotest.test_case "zk-2201 story" `Slow test_zk2201_story;
          Alcotest.test_case "silent stuck: only mimic" `Slow
            test_silent_stuck_only_mimic;
          Alcotest.test_case "crash favours extrinsic" `Slow
            test_crash_favors_extrinsic;
          Alcotest.test_case "corruption needs mimic" `Slow
            test_corruption_needs_mimic;
          Alcotest.test_case "fault-free accuracy" `Slow test_fault_free_accuracy;
          Alcotest.test_case "full-catalog conformance" `Slow
            test_catalog_conformance;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "context-sync ablation (E8)" `Slow test_context_ablation;
          Alcotest.test_case "isolation (E10)" `Slow test_isolation_properties;
          Alcotest.test_case "generation stats (E6)" `Quick test_generation_stats;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "checker classification" `Quick test_classify_checker;
          Alcotest.test_case "catalog consistency" `Quick
            test_scenario_catalog_consistent;
          Alcotest.test_case "table rendering" `Quick test_tables_render;
          Alcotest.test_case "loadgen deterministic" `Quick
            test_loadgen_deterministic;
          Alcotest.test_case "loadgen open-loop sheds overload" `Quick
            test_loadgen_open_sheds;
          Alcotest.test_case "kernel schedule pinned" `Quick
            test_kernel_schedule_pinned;
          Alcotest.test_case "map contents pinned" `Quick
            test_map_contents_pinned;
        ] );
      ( "config",
        [
          Alcotest.test_case "env loader rejects malformed values" `Quick
            test_env_rejects_malformed;
          Alcotest.test_case "argv scan rejects unknown flags" `Quick
            test_scan_rejects_unknown;
        ] );
    ]
