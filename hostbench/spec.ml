(* The benchmark's contract in one place: workloads, the end-to-end
   metrics (with the bound by which each may worsen) and the per-layer
   metrics. [manifest] renders BENCHMARK.json from it; a test keeps the
   checked-in file equal to that rendering, and the runner refuses to
   print a metric set that differs from it. *)

type better = Lower | Higher

let workloads =
  [
    ( "zk-closed",
      "zkmini wd-on closed loop, 32 clients, 1 read to 2 creates: the IR \
       engine, sim kernel and context hooks do the work" );
    ( "cstore-open-reads",
      "cstore wd-on open loop at 8000 req/s, 4 of 5 reads: reads fire no \
       hooks, so the sim kernel's spawn/timer path and the env dominate" );
    ( "faultspace-sweep",
      "E20 fault-space grid, one world per op: set-up, caches, driver, \
       checkers, faults and fleets do their work here" );
  ]

let run_seconds = 10

(* name, unit, better, bound *)
(* name, unit, better, bound. Over three sets of ten seeds on the
   reference host the host figures spread (IQR / median) at most 0.061,
   except cstore's p90 at 0.085 once, and the exact ones at most 0.021.
   [setup_s] spreads 0.05-0.16 (a ~1 ms cold path) and takes the largest
   bound, which the p90 shares. *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("host_us_per_op", "us", Lower, 0.2);
    ("host_us_per_op_p90", "us", Lower, 0.25);
    ("ops_per_host_s", "1/s", Higher, 0.2);
    ("alloc_bytes_per_op", "B", Lower, 0.1);
    ("ok_ratio", "ratio", Higher, 0.05);
    ("detect_ms", "ms", Lower, 0.1);
  ]

let per_layer =
  [
    ("sim.host_ns_per_event", "ns", Lower);
    ("sim.switches_per_op", "count", Lower);
    ("sim.spawns_per_op", "count", Lower);
    ("sim.runq_depth_p50", "count", Lower);
    ("sim.timers_p50", "count", Lower);
    ("env.disk_reads_per_op", "count", Lower);
    ("env.disk_writes_per_op", "count", Lower);
    ("env.disk_bytes_per_op", "B", Lower);
    ("env.disk_syncs_per_op", "count", Lower);
    ("env.mem_pauses", "count", Lower);
    ("ir.precompile_ms", "ms", Lower);
    ("ir.compile_cache_hit_rate", "ratio", Higher);
    ("ir.ic_refills", "count", Lower);
    ("gen.analyze_ms", "ms", Lower);
    ("gen.cache_hit_rate", "ratio", Higher);
    ("harness.boot_ms", "ms", Lower);
    ("base.host_us_per_op", "us", Lower);
    ("base.alloc_bytes_per_op", "B", Lower);
    ("base.events_per_op", "count", Lower);
    ("hooks.host_us_per_op", "us", Lower);
    ("hooks.alloc_bytes_per_op", "B", Lower);
    ("hooks.events_per_op", "count", Lower);
    ("checkers.host_us_per_op", "us", Lower);
    ("checkers.alloc_bytes_per_op", "B", Lower);
    ("checkers.events_per_op", "count", Lower);
    ("driver.runs_per_vsec", "1/s", Lower);
    ("driver.timeouts", "count", Lower);
    ("driver.skip_ratio", "ratio", Lower);
    ("schedule.dedup_skips", "count", Higher);
    ("schedule.shared_syncs", "count", Higher);
    ("infer.host_us_per_op", "us", Lower);
    ("infer.alloc_bytes_per_op", "B", Lower);
    ("infer.mine_s", "s", Lower);
    ("loadgen.lateness_us_p99", "us", Lower);
    ("loadgen.inflight_p50", "count", Lower);
    ("loadgen.shed", "count", Lower);
    ("loadgen.op_span_us_p50", "us", Lower);
    ("sweep.scenario_world_ms_p50", "ms", Lower);
    ("sweep.fault_free_world_ms_p50", "ms", Lower);
    ("sweep.fleet_world_ms_p50", "ms", Lower);
    ("sweep.detected_ratio", "ratio", Higher);
    ("bench.raw_us_per_op", "us", Lower);
    ("bench.ref_kernel_ms", "ms", Lower);
    ("bench.trace_overhead_pct", "%", Lower);
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"
let q = Metric.json_string

let manifest () =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let list items f =
    add "[\n";
    add (String.concat ",\n" (List.map f items));
    add "\n  ]"
  in
  add "{\n";
  add "  \"command\": [\"bash\", \"hostbench/run.sh\"],\n";
  add "  \"paths\": [\"hostbench\"],\n";
  add (Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds);
  add "  \"workloads\": ";
  list workloads (fun (n, why) ->
      Printf.sprintf "    {\"name\": %s, \"why\": %s}" (q n) (q why));
  add ",\n  \"end_to_end\": ";
  list end_to_end (fun (n, u, bt, bound) ->
      Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %s}"
        (q n) (q u) (q (better_name bt)) (Printf.sprintf "%g" bound));
  add ",\n  \"per_layer\": ";
  list per_layer (fun (n, u, bt) ->
      Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s}" (q n)
        (q u) (q (better_name bt)));
  add "\n}\n";
  Buffer.contents b
