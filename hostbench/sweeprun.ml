(* The fault-space sweep workload: the E20 grid drawn from the seed, one
   world per op. Each [Sweep.run_world] call is host-timed and followed by
   a reference-kernel run; each world is graded by its own oracle. *)

open Common
module Sweep = Wd_harness.Sweep
module Systems = Wd_harness.Systems
module Generate = Wd_autowatchdog.Generate
module Interp = Wd_ir.Interp

let kind_of = function
  | Sweep.Scenario_world _ -> "scenario"
  | Sweep.Fault_free_world _ -> "fault-free"
  | Sweep.Fleet_world _ -> "fleet"

(* Fleet worlds are stratified by node count too: a 6-node fleet costs
   half again a 4-node one, and sets the heap's high-water mark. *)
let stratum_of = function
  | Sweep.Fleet_world { fl_topology; _ } ->
      Printf.sprintf "fleet-%dn" (Wd_cluster.Topology.nodes fl_topology)
  | w -> kind_of w

(* Worlds per stratum, close to the grid generator's own 24:4:1 mix: the
   end-to-end grid takes [scale] = 3 (about 10 s of worlds on the
   reference host); the traced run, which passes twice, [scale] = 1. *)
let strata ~scale =
  [
    ("scenario", 240 * scale);
    ("fault-free", 40 * scale);
    ("fleet-4n", 3 * scale);
    ("fleet-5n", 3 * scale);
    ("fleet-6n", 3 * scale);
  ]

type world = { kind : string; stratum : string; sample : sample; bytes : float }

(* One pass over the grid. A traced pass also reads the analysis and
   compile cache counters around every world. *)
let pass ?(traced = false) ~kernel grid =
  let caches = ref [] in
  let results =
    List.map
      (fun w ->
        let c0 =
          if traced then Some (Generate.cache_stats (), Interp.compile_cache_stats ())
          else None
        in
        let a0 = alloc_bytes_raw () in
        let t0 = Monotonic_clock.now () in
        let o = Sweep.run_world w in
        let t1 = Monotonic_clock.now () in
        let a1 = alloc_bytes_raw () in
        let kernel_ns = Refk.run kernel in
        (match c0 with
        | Some c ->
            caches :=
              (c, (Generate.cache_stats (), Interp.compile_cache_stats ()))
              :: !caches
        | None -> ());
        ( o,
          {
            kind = kind_of w;
            stratum = stratum_of w;
            sample = { raw_ns = Int64.to_float (Int64.sub t1 t0); kernel_ns; ops = 1 };
            bytes = a1 -. a0 -. read_cost;
          } ))
      grid
  in
  let ws = List.map snd results in
  let ks = smooth (List.map (fun w -> w.sample) ws) in
  ( List.map fst results,
    List.map2 (fun w sample -> { w with sample }) ws ks,
    List.rev !caches )

let setup ~kernel =
  cold ~kernel "setup" (fun () ->
      Generate.clear_cache ();
      Interp.clear_compile_cache ();
      List.iter
        (fun system ->
          ignore
            (Systems.boot ~sched:(Sched.create ()) ~reg:(Wd_env.Faultreg.create ())
               ~mode:Systems.Wd_generated system))
        Systems.all_systems)

(* A stratified draw from the E20 grid: the seed's grid, in order, keeping
   the first worlds of each stratum up to its size. A fleet world costs
   about ten single-node worlds, so a free draw would swing the per-world
   mean by the luck of the fleet count; fixing the mix leaves the seed to
   choose the worlds, not the proportions. *)
let grid_of ~seed ~scale =
  let strata = strata ~scale in
  let worlds = List.fold_left (fun n (_, k) -> n + k) 0 strata in
  let pool = Sweep.grid ~seed ~worlds:(10 * worlds) () in
  let taken = Hashtbl.create 3 in
  let grid =
    List.filter
      (fun w ->
        let k = stratum_of w in
        let n = Option.value ~default:0 (Hashtbl.find_opt taken k) in
        if n < List.assoc k strata then (Hashtbl.replace taken k (n + 1); true)
        else false)
      pool
  in
  if List.length grid <> worlds then failwith "sweep grid: a stratum ran short";
  Printf.printf "grid seed %d: %s\n%!" seed
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%d %s" n k) strata));
  grid

(* Warm-up over the grid's first [warmup] worlds, then measured passes
   until [until] ns (at least one). Every pass must grade every world
   exactly as the first did, and the warm-up as the pass did. *)
let warmup = 30

let measure ~kernel ~grid ~until =
  let warm, _, _ = pass ~kernel (List.filteri (fun i _ -> i < warmup) grid) in
  let t0 = now_ns () in
  let measured () =
    let outcomes, ws, _ = pass ~kernel grid in
    (outcomes, ws)
  in
  let ((outcomes, _) as first) = measured () in
  (* the process is a pure function of the seed up to here *)
  let heap_mb = heap_peak_mb () in
  let rec go acc =
    if now_ns () -. t0 >= until then List.rev acc else go (measured () :: acc)
  in
  let passes = go [ first ] in
  check "sweep outcomes name their worlds"
    (List.for_all2 (fun o w -> o.Sweep.o_world = Sweep.world_id w) outcomes grid)
    "";
  check "sweep passes repeat exactly"
    (List.for_all (fun (o, _) -> Sweep.digest o = Sweep.digest outcomes) passes
    && warm = List.filteri (fun i _ -> i < warmup) outcomes)
    (Printf.sprintf "%d measured passes after a %d-world warm-up, digest %s"
       (List.length passes) warmup (Sweep.digest outcomes));
  (outcomes, heap_mb, passes)

let latencies outcomes =
  List.filter_map
    (fun o ->
      match o.Sweep.o_latency with
      | Some l when o.Sweep.o_expect_detect && o.Sweep.o_detected ->
          Some (Wd_sim.Time.to_float_ms l)
      | _ -> None)
    outcomes

(* The per-world mean over [grid], with each stratum's worlds valued at
   that stratum's median of [f] in [ws]. A plain mean lets a few fleet
   worlds (a long major-GC cycle, an unlucky topology) swing the figure;
   stratum medians keep each stratum's weight and drop those. *)
let stratified_mean grid ws f =
  let sizes =
    List.map
      (fun st -> (st, List.length (List.filter (fun w -> stratum_of w = st) grid)))
      (List.sort_uniq String.compare (List.map stratum_of grid))
  in
  List.fold_left
    (fun acc (st, n) ->
      let ks = List.filter (fun w -> w.stratum = st) ws in
      acc +. (Stats.median (List.map f ks) *. float_of_int n))
    0. sizes
  /. float_of_int (List.length grid)

(* Per-kind world times, normalised beside raw and kernel medians. *)
let show_kinds ws =
  List.iter
    (fun kind ->
      match List.filter (fun w -> w.kind = kind) ws with
      | [] -> ()
      | ks ->
          let med f = Stats.median (List.map f ks) in
          Printf.printf
            "kind %-10s %3d worlds: %.3f ms normalised = raw %.3f ms beside a %.4f ms \
             kernel (medians); %.0f KB mean alloc\n%!"
            kind (List.length ks)
            (med (fun w -> norm w.sample /. 1e6))
            (med (fun w -> w.sample.raw_ns /. 1e6))
            (med (fun w -> w.sample.kernel_ns /. 1e6))
            (Stats.sum (List.map (fun w -> w.bytes /. 1e3) ks)
            /. float_of_int (List.length ks)))
    [ "scenario"; "fault-free"; "fleet" ]

let e2e ~kernel ~seed ~seconds =
  let grid = grid_of ~seed ~scale:3 in
  let worlds = List.length grid in
  let setup_ns = setup ~kernel in
  let graded, heap_mb, passes = measure ~kernel ~grid ~until:(seconds *. 1e9) in
  let s = Sweep.summarize ~seed graded in
  Fmt.pr "oracle: %a@." Sweep.pp_summary s;
  List.iter
    (fun o ->
      if not o.Sweep.o_ok then Printf.printf "oracle miss: %s\n%!" o.Sweep.o_world)
    graded;
  let _, first = List.hd passes in
  let all = List.concat_map snd passes in
  let h = host_of (List.map (fun w -> w.sample) all) in
  show_host "faultspace-sweep" h;
  show_kinds first;
  let lats = latencies graded in
  let detect = Stats.median lats and detect_p90 = Stats.percentile lats 0.90 in
  show "heap_peak_mb" "MB" heap_mb;
  show "alloc_bytes_mean" "B"
    (Stats.sum (List.map (fun w -> w.bytes) first) /. float_of_int worlds);
  show "detect_ms_p90" "ms(V)" detect_p90
    ~note:(Printf.sprintf "over %d detecting worlds" (List.length lats));
  (* An op is one world run and graded; a world that misses its oracle is
     a graded outcome (counted in ok_ratio), not a failed op. *)
  ( worlds,
    0,
    [
      ("setup_s", setup_ns /. 1e9);
      ("host_us_per_op", h.h_med_us);
      ("host_us_per_op_p90", h.h_p90_us);
      ("ops_per_host_s", 1e9 /. stratified_mean grid all (fun w -> norm w.sample));
      ("alloc_bytes_per_op", stratified_mean grid first (fun w -> w.bytes));
      ("ok_ratio", float_of_int s.Sweep.s_ok /. float_of_int worlds);
      ("detect_ms", detect);
    ] )

let kind_p50_ms ws kind =
  match List.filter (fun w -> w.kind = kind) ws with
  | [] -> 0.
  | ks -> Stats.median (List.map (fun w -> norm w.sample /. 1e6) ks)

let traced ~kernel ~seed ~seconds:_ =
  let grid = grid_of ~seed ~scale:1 in
  let worlds = List.length grid in
  ignore (setup ~kernel);
  let graded, _, passes = measure ~kernel ~grid ~until:0. in
  let _, untraced = List.hd passes in
  let ic0 = Interp.ic_refills () in
  let outcomes, ws, caches = pass ~traced:true ~kernel grid in
  let ic_refills = Interp.ic_refills () - ic0 in
  check "sweep traced pass = untraced (virtual)"
    (Sweep.digest outcomes = Sweep.digest graded)
    (Sweep.digest outcomes);
  let hu = host_of (List.map (fun w -> w.sample) untraced) in
  let ht = host_of (List.map (fun w -> w.sample) ws) in
  show_host "sweep/untraced" hu;
  show_kinds untraced;
  show_host "sweep/traced" ht;
  let sum_pairs f =
    List.fold_left
      (fun (h, m) (c0, c1) ->
        let (h0, m0), (h1, m1) = (f c0, f c1) in
        (h + h1 - h0, m + m1 - m0))
      (0, 0) caches
  in
  let gen_rate = rate_since (0, 0) (sum_pairs fst) in
  let ir_rate = rate_since (0, 0) (sum_pairs snd) in
  let s = Sweep.summarize ~seed graded in
  let programs = List.map Wd_harness.Inference.program_of Systems.all_systems in
  let analyze_ns =
    cold ~kernel "Generate.analyze x5" (fun () ->
        List.iter (fun p -> ignore (Generate.analyze p)) programs)
  in
  let instrumented =
    List.map
      (fun p -> (Generate.analyze p).Generate.red.Wd_analysis.Reduction.instrumented)
      programs
  in
  let precompile_ns =
    cold ~kernel "Interp.precompile x5" (fun () ->
        Interp.clear_compile_cache ();
        List.iter (fun p -> ignore (Interp.precompile p)) instrumented)
  in
  let boot_ns =
    cold ~kernel "Systems.boot x5 (warm)" (fun () ->
        List.iter
          (fun system ->
            ignore
              (Systems.boot ~sched:(Sched.create ()) ~reg:(Wd_env.Faultreg.create ())
                 ~mode:Systems.Wd_generated system))
          Systems.all_systems)
  in
  let zero names = List.map (fun n -> (n, 0.)) names in
  ( worlds,
    0,
    zero
      [
        "sim.host_ns_per_event"; "sim.switches_per_op"; "sim.spawns_per_op";
        "sim.runq_depth_p50"; "sim.timers_p50"; "env.disk_reads_per_op";
        "env.disk_writes_per_op"; "env.disk_bytes_per_op";
        "env.disk_syncs_per_op"; "env.mem_pauses";
      ]
    @ [
        ("ir.precompile_ms", precompile_ns /. 1e6);
        ("ir.compile_cache_hit_rate", ir_rate);
        ("ir.ic_refills", float_of_int ic_refills);
        ("gen.analyze_ms", analyze_ns /. 1e6);
        ("gen.cache_hit_rate", gen_rate);
        ("harness.boot_ms", boot_ns /. 1e6);
      ]
    @ zero
        [
          "base.host_us_per_op"; "base.alloc_bytes_per_op"; "base.events_per_op";
          "hooks.host_us_per_op"; "hooks.alloc_bytes_per_op"; "hooks.events_per_op";
          "checkers.host_us_per_op"; "checkers.alloc_bytes_per_op";
          "checkers.events_per_op"; "driver.runs_per_vsec"; "driver.timeouts";
          "driver.skip_ratio"; "schedule.dedup_skips"; "schedule.shared_syncs";
          "infer.host_us_per_op"; "infer.alloc_bytes_per_op"; "infer.mine_s";
          "loadgen.lateness_us_p99"; "loadgen.inflight_p50"; "loadgen.shed";
          "loadgen.op_span_us_p50";
        ]
    @ [
        ("sweep.scenario_world_ms_p50", kind_p50_ms untraced "scenario");
        ("sweep.fault_free_world_ms_p50", kind_p50_ms untraced "fault-free");
        ("sweep.fleet_world_ms_p50", kind_p50_ms untraced "fleet");
        ( "sweep.detected_ratio",
          float_of_int s.Sweep.s_detected
          /. float_of_int (max 1 s.Sweep.s_expect_detect) );
        ("bench.raw_us_per_op", hu.h_raw_med_us);
        ("bench.ref_kernel_ms", hu.h_kernel_med_ms);
        ("bench.trace_overhead_pct", 100. *. (ht.h_med_us -. hu.h_med_us) /. hu.h_med_us);
      ] )
