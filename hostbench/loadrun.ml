(* The two load workloads: a target booted under one deploy, a request
   stream drawn from the seed, and the simulation driven in fixed virtual
   slices, each timed on the host and followed by a reference-kernel run.

   A round is one fresh world serving the whole stream. Its virtual
   outputs (counts, latencies, sim events) are a pure function of (seed,
   deploy). Its allocation repeats exactly too, once a warm-up round has
   filled the analysis and compile caches and the frame pools, as long as
   the round before it ran the same deploy. *)

open Common
module Time = Wd_sim.Time
module Systems = Wd_harness.Systems
module Loadgen = Wd_harness.Loadgen
module Driver = Wd_watchdog.Driver
module Schedule = Wd_watchdog.Schedule
module Generate = Wd_autowatchdog.Generate
module Interp = Wd_ir.Interp

type gen =
  | Closed of { clients : int; think : int64 }
  | Open of { rate : int; max_inflight : int }

type spec = {
  name : string;
  system : string;
  gen : gen;
  keyspace : int;  (** key or path slots [b_client] cycles through *)
  is_read : int -> bool;  (** [b_client]'s read/write choice by index *)
  reads : int * int;  (** wanted read share, as num/den *)
  requests : int;  (** offered per round *)
  sid : string;  (** catalog fault for the detect run *)
}

(* [b_client i] picks its op from [i mod 3] and its key from
   [i mod keyspace]; 3 and the key spaces are coprime, so any (op, key)
   pair has an index below [3 * keyspace]. *)
let zk_closed =
  {
    name = "zk-closed";
    system = "zkmini";
    gen = Closed { clients = 32; think = Time.us 50 };
    keyspace = 64;
    is_read = (fun k -> k mod 3 = 0);
    reads = (1, 3);
    requests = 16_000;
    sid = "zk-2201";
  }

let cstore_open_reads =
  {
    name = "cstore-open-reads";
    system = "cstore";
    gen = Open { rate = 8_000; max_inflight = 512 };
    keyspace = 128;
    is_read = (fun k -> k mod 3 = 2);
    reads = (4, 5);
    requests = 24_000;
    sid = "cs-compaction-stuck";
  }

(* The request-index stream: request [i] gets a read with probability
   num/den and a uniform key slot, encoded as an index [b_client]
   decodes to exactly that (op, key). Multiples of [3 * keyspace] keep
   every index (and so every written payload) distinct. *)
let stream spec ~seed =
  let st = Random.State.make [| 0x5EED; seed |] in
  let num, den = spec.reads in
  let period = 3 * spec.keyspace in
  Array.init spec.requests (fun i ->
      let read = Random.State.int st den < num in
      let slot = Random.State.int st spec.keyspace in
      let rec pick k = if spec.is_read k = read then k else pick (k + spec.keyspace) in
      (period * i) + pick slot)

let read_share spec stream =
  let r = Array.fold_left (fun n k -> if spec.is_read k then n + 1 else n) 0 stream in
  float_of_int r /. float_of_int (Array.length stream)

(* --- deploys --- *)

type deploy = Wd_off | Hooks_only | Wd_on | Inferred_on of Wd_infer.Synth.model

let deploy_name = function
  | Wd_off -> "wd-off"
  | Hooks_only -> "hooks-only"
  | Wd_on -> "wd-on"
  | Inferred_on _ -> "inferred-on"

(* Hooks-only stops the driver right after boot: the instrumented program
   keeps syncing contexts but no checker ever runs. *)
let boot spec ~seed deploy =
  let sched = Sched.create ~seed () in
  let reg = Wd_env.Faultreg.create () in
  let mode =
    match deploy with
    | Wd_off | Inferred_on _ -> Systems.Wd_none
    | Hooks_only | Wd_on -> Systems.Wd_generated
  in
  (* the monitor must see boot, exactly as during mining *)
  let monitor =
    match deploy with
    | Inferred_on _ -> Some (Wd_infer.Monitor.create sched)
    | _ -> None
  in
  let b = Systems.boot ~sched ~reg ~mode spec.system in
  (match (deploy, monitor) with
  | Inferred_on model, Some monitor ->
      List.iter
        (Driver.add_checker b.Systems.b_driver)
        (Wd_infer.Checkers.compile ~model ~monitor ())
  | Hooks_only, _ -> Driver.stop b.Systems.b_driver
  | _ -> ());
  (sched, reg, b)

let spawn spec sched ~op =
  match spec.gen with
  | Closed c ->
      Loadgen.spawn_closed ~label:spec.name ~sched ~clients:c.clients
        ~think:c.think ~requests:spec.requests ~op ()
  | Open o ->
      Loadgen.spawn_open ~label:spec.name ~sched ~rate_rps:o.rate
        ~max_inflight:o.max_inflight ~requests:spec.requests ~op ()

let interval spec =
  match spec.gen with
  | Open o -> Int64.div 1_000_000_000L (Int64.of_int o.rate)
  | Closed _ -> 0L

(* --- one round --- *)

(* Everything a warm round produces that repeats exactly. *)
type exact = {
  x_ok : int;
  x_err : int;
  x_timeout : int;
  x_shed : int;
  x_lat_p50 : int;  (** virtual ns *)
  x_lat_p99 : int;
  x_late_p99 : int;
  x_events : int;
  x_switches : int;
  x_spawns : int;
  x_vtime : int64;
  x_alloc : float;  (** bytes allocated inside the timed slices *)
}

(* Layer counters of a traced round: deltas over the round, and probes
   sampled at every slice boundary. *)
type layers = {
  l_disk_reads : int;
  l_disk_writes : int;
  l_disk_bytes : int;
  l_disk_syncs : int;
  l_mem_pauses : int;
  l_runq : float list;
  l_timers : float list;
  l_inflight : float list;
  l_op_span_us : float list;  (** host span of each served op *)
  l_ic_refills : int;
  l_driver_runs : int;
  l_driver_skips : int;
  l_driver_timeouts : int;
  l_dedup : int;
  l_shared : int;
}

type round = { exact : exact; samples : sample list; layers : layers option }

let slice_ns = Time.ms 25

let disk_totals (b : Systems.booted) =
  Hashtbl.fold
    (fun _ d (r, w, br, bw, s) ->
      let r', w', br', bw', s' = Wd_env.Disk.stats d in
      (r + r', w + w', br + br', bw + bw', s + s'))
    b.Systems.b_res.Wd_ir.Runtime.disks (0, 0, 0, 0, 0)

let mem_pauses (b : Systems.booted) =
  let _, _, _, pauses, _ = Wd_env.Memory.stats b.Systems.b_mem in
  pauses

let pct_int xs q =
  int_of_float (Stats.percentile (List.map float_of_int xs) q)

let round ?(traced = false) ~kernel spec ~seed ~stream deploy =
  let sched, _reg, b = boot spec ~seed deploy in
  let n = Array.length stream in
  let lat = Array.make n (-1) and late = Array.make n 0 in
  let span = Float.Array.make (if traced then n else 0) 0. in
  let started = ref 0 and ok = ref 0 and err = ref 0 and tmo = ref 0 in
  let start = Sched.now sched and every = interval spec in
  (* Open loop: time each request from when it was due, so a stall also
     charges the requests queued behind it; [Loadgen] stamps its own
     latency when the request fiber first runs. *)
  let op i =
    let t0 = Sched.now sched in
    let h0 = if traced then Monotonic_clock.now () else 0L in
    incr started;
    let from =
      match spec.gen with
      | Closed _ -> t0
      | Open _ ->
          let due = Int64.add start (Int64.mul (Int64.of_int i) every) in
          late.(i) <- Int64.to_int (Int64.sub t0 due);
          due
    in
    let r = b.Systems.b_client stream.(i) in
    lat.(i) <- Int64.to_int (Int64.sub (Sched.now sched) from);
    if traced then
      Float.Array.set span i
        (Int64.to_float (Int64.sub (Monotonic_clock.now ()) h0));
    (match r with
    | `Ok _ -> incr ok
    | `Err _ -> incr err
    | `Timeout -> incr tmo);
    r
  in
  let g = spawn spec sched ~op in
  Schedule.set_load_probe
    (Driver.schedule b.Systems.b_driver)
    (fun () -> Loadgen.inflight g);
  let completed () = !ok + !err + !tmo in
  let arrivals_end = Int64.add start (Int64.mul (Int64.of_int n) every) in
  let finished () =
    match spec.gen with
    | Closed _ -> completed () >= n
    | Open _ -> Sched.now sched >= arrivals_end && Loadgen.inflight g = 0
  in
  let limit = Int64.add start (Time.sec 300) in
  let disk0 = disk_totals b and pauses0 = mem_pauses b in
  let ic0 = Interp.ic_refills () in
  let samples = ref [] and alloc = ref 0. and probes = ref [] in
  while not (finished ()) do
    if Sched.now sched > limit then failwith (spec.name ^ ": round never drained");
    let c0 = completed () in
    let until = Int64.add (Sched.now sched) slice_ns in
    let a0 = alloc_bytes_raw () in
    let t0 = Monotonic_clock.now () in
    run_until sched until;
    let t1 = Monotonic_clock.now () in
    let a1 = alloc_bytes_raw () in
    alloc := !alloc +. (a1 -. a0 -. read_cost);
    let kernel_ns = Refk.run kernel in
    samples :=
      { raw_ns = Int64.to_float (Int64.sub t1 t0); kernel_ns; ops = completed () - c0 }
      :: !samples;
    if traced then
      probes :=
        ( float_of_int (Sched.runq_depth sched),
          float_of_int (Sched.timer_count sched),
          float_of_int (Loadgen.inflight g) )
        :: !probes
  done;
  (* [Loadgen]'s own accounting is the oracle for ours: every arrival is
     ok, err, timeout or shed. *)
  let r = Loadgen.drive g in
  let shed = n - !started in
  if
    r.Loadgen.lr_ok <> !ok || r.Loadgen.lr_err <> !err
    || r.Loadgen.lr_timeout <> !tmo || r.Loadgen.lr_shed <> shed
    || !ok + !err + !tmo + shed <> n
  then
    failwith
      (Printf.sprintf
         "%s/%s: arrivals not accounted (ok %d err %d timeout %d shed %d of %d)"
         spec.name (deploy_name deploy) r.Loadgen.lr_ok r.Loadgen.lr_err
         r.Loadgen.lr_timeout r.Loadgen.lr_shed n);
  let served = List.filter (fun i -> lat.(i) >= 0) (List.init n Fun.id) in
  let layers =
    if not traced then None
    else begin
      let r1, w1, br1, bw1, s1 = disk_totals b and r0, w0, br0, bw0, s0 = disk0 in
      let checkers = Driver.stats b.Systems.b_driver in
      let sum f = List.fold_left (fun n c -> n + f c) 0 checkers in
      let st = Schedule.stats (Driver.schedule b.Systems.b_driver) in
      Some
        {
          l_disk_reads = r1 - r0;
          l_disk_writes = w1 - w0;
          l_disk_bytes = br1 + bw1 - br0 - bw0;
          l_disk_syncs = s1 - s0;
          l_mem_pauses = mem_pauses b - pauses0;
          l_runq = List.map (fun (q, _, _) -> q) !probes;
          l_timers = List.map (fun (_, t, _) -> t) !probes;
          l_inflight = List.map (fun (_, _, f) -> f) !probes;
          l_op_span_us = List.map (fun i -> Float.Array.get span i /. 1e3) served;
          l_ic_refills = Interp.ic_refills () - ic0;
          l_driver_runs = sum (fun c -> c.Driver.cs_executions);
          l_driver_skips = sum (fun c -> c.Driver.cs_skips);
          l_driver_timeouts = sum (fun c -> c.Driver.cs_timeouts);
          l_dedup = st.Schedule.st_dedup_skips;
          l_shared = st.Schedule.st_shared_syncs;
        }
    end
  in
  let lats = List.map (fun i -> lat.(i)) served in
  let spawns, switches, events = Sched.stats sched in
  {
    exact =
      {
        x_ok = !ok;
        x_err = !err;
        x_timeout = !tmo;
        x_shed = shed;
        x_lat_p50 = pct_int lats 0.50;
        x_lat_p99 = pct_int lats 0.99;
        x_late_p99 = pct_int (List.map (fun i -> late.(i)) served) 0.99;
        x_events = events;
        x_switches = switches;
        x_spawns = spawns;
        x_vtime = Int64.sub (Sched.now sched) start;
        x_alloc = !alloc;
      };
    samples = smooth (List.rev !samples);
    layers;
  }

(* --- detection under load --- *)

(* One wd-on world under the same stream; the catalog fault lands at
   [inject_at], mid-load. Latency is the first driver report at or after
   the injection instant, in virtual time. *)
let detect_once spec ~seed ~stream ~inject_at =
  let scenario = Wd_faults.Catalog.find spec.sid in
  let sched, reg, b = boot spec ~seed Wd_on in
  let g = spawn spec sched ~op:(fun i -> b.Systems.b_client stream.(i)) in
  Schedule.set_load_probe
    (Driver.schedule b.Systems.b_driver)
    (fun () -> Loadgen.inflight g);
  run_until sched inject_at;
  ignore (Wd_faults.Catalog.inject reg scenario ~at:inject_at);
  let deadline = Int64.add inject_at (Time.sec 30) in
  let found = ref None in
  while !found = None && Sched.now sched < deadline do
    run_until sched (Int64.add (Sched.now sched) (Time.ms 100));
    found :=
      Driver.first_report_where b.Systems.b_driver (fun r ->
          r.Wd_watchdog.Report.at >= inject_at)
  done;
  Option.map (fun r -> Int64.sub r.Wd_watchdog.Report.at inject_at) !found

(* Detection latency depends on where the injection lands in the checkers'
   periods, so the fault is injected in [detect_runs] separate worlds at
   2 s plus offsets 0.1 s apart from a seeded start in [0, 0.1 s). Returns
   (injection instant, latency) per run. *)
let detect_runs = 5

let detect spec ~seed ~stream =
  let u = Random.State.int (Random.State.make [| 0xDE7EC7; seed |]) 100_000 in
  List.init detect_runs (fun k ->
      let offset_us = (k * 100_000) + u in
      let inject_at = Int64.add (Time.sec 2) (Time.us offset_us) in
      (inject_at, detect_once spec ~seed ~stream ~inject_at))

(* --- the two runs --- *)

let same_virtual a b = { a with x_alloc = 0. } = { b with x_alloc = 0. }

let show_exact label spec x =
  let n = float_of_int spec.requests in
  Printf.printf
    "round %-20s ok %d err %d timeout %d shed %d of %d; lat p50 %.1f us p99 \
     %.1f us (virtual); %.2f sim events/op; %.1f B/op\n%!"
    label x.x_ok x.x_err x.x_timeout x.x_shed spec.requests
    (float_of_int x.x_lat_p50 /. 1e3)
    (float_of_int x.x_lat_p99 /. 1e3)
    (float_of_int x.x_events /. n)
    (x.x_alloc /. n)

(* Cold set-up: analysis and compile caches cleared, then one wd-on boot
   (analysis, compile, boot). *)
let setup ~kernel spec ~seed =
  cold ~kernel "setup" (fun () ->
      Generate.clear_cache ();
      Interp.clear_compile_cache ();
      ignore (boot spec ~seed Wd_on))

(* One deploy: a warm-up round, then measured rounds until [until] ns have
   passed (at least one), which must all repeat the first exactly. *)
let measure ~kernel spec ~seed ~stream ~until deploy =
  let warm = round ~kernel spec ~seed ~stream deploy in
  let t0 = now_ns () in
  let first = round ~kernel spec ~seed ~stream deploy in
  (* read here, not at exit: up to this point the process is a pure
     function of the seed, so the high-water mark repeats exactly *)
  let heap_mb = heap_peak_mb () in
  let rec go acc =
    if now_ns () -. t0 >= until then List.rev acc
    else go (round ~kernel spec ~seed ~stream deploy :: acc)
  in
  let rounds = go [ first ] in
  let label = spec.name ^ "/" ^ deploy_name deploy in
  check (label ^ " rounds repeat exactly")
    (List.for_all (fun r -> r.exact = first.exact) rounds
    && same_virtual warm.exact first.exact)
    (Printf.sprintf "%d measured rounds after a warm-up" (List.length rounds));
  show_exact label spec first.exact;
  let h = host_of (List.concat_map (fun r -> r.samples) rounds) in
  show_host label h;
  (first, heap_mb, h)

let per_op spec v = float_of_int v /. float_of_int spec.requests

let e2e ~kernel ~seed ~seconds spec =
  let stream = stream spec ~seed in
  let share = read_share spec stream and num, den = spec.reads in
  (* 0.02 is over five binomial standard deviations at these sizes *)
  check (spec.name ^ " stream read share")
    (Float.abs (share -. (float_of_int num /. float_of_int den)) < 0.02)
    (Printf.sprintf "realised %.4f over %d requests, wanted %d/%d" share
       spec.requests num den);
  let setup_ns = setup ~kernel spec ~seed in
  let first, heap_mb, h =
    measure ~kernel spec ~seed ~stream ~until:(seconds *. 1e9) Wd_on
  in
  let x = first.exact in
  let runs = detect spec ~seed ~stream in
  let lats = List.filter_map (fun (_, l) -> Option.map Time.to_float_ms l) runs in
  check (spec.name ^ " detect runs report after injection")
    (List.length lats = detect_runs)
    (Printf.sprintf "%s at %s s" spec.sid
       (String.concat ", "
          (List.map (fun (at, _) -> Printf.sprintf "%.3f" (Time.to_float_sec at)) runs)));
  let detect_ms, detect_p90 =
    if lats = [] then (0., 0.) else (Stats.median lats, Stats.percentile lats 0.90)
  in
  show "detect_ms_p90" "ms(V)" detect_p90;
  show "heap_peak_mb" "MB" heap_mb;
  show "lat_p50_us" "us(V)" (float_of_int x.x_lat_p50 /. 1e3);
  show "lat_p99_us" "us(V)" (float_of_int x.x_lat_p99 /. 1e3);
  show "sim_events_per_op" "count" (per_op spec x.x_events);
  ( spec.requests,
    spec.requests - x.x_ok,
    [
      ("setup_s", setup_ns /. 1e9);
      ("host_us_per_op", h.h_med_us);
      ("host_us_per_op_p90", h.h_p90_us);
      ("ops_per_host_s", float_of_int h.h_ops /. h.h_norm_s);
      ("alloc_bytes_per_op", x.x_alloc /. float_of_int spec.requests);
      ("ok_ratio", float_of_int x.x_ok /. float_of_int spec.requests);
      ("detect_ms", detect_ms);
    ] )

(* The inferred generation for zkmini, mined from the same fault-free runs
   E21 mines. *)
let mine_model system =
  let cfg = Wd_harness.Inference.default_cfg in
  let runs =
    List.map
      (fun seed ->
        Wd_harness.Inference.mine_run ~warmup:cfg.Wd_harness.Inference.mc_warmup
          ~observe:cfg.Wd_harness.Inference.mc_observe ~seed system)
      cfg.Wd_harness.Inference.mc_fixed_seeds
  in
  Wd_infer.Synth.synthesize ~config:cfg.Wd_harness.Inference.mc_synth
    ~locate:(Wd_harness.Inference.locate_in (Wd_harness.Inference.program_of system))
    ~system (Wd_infer.Mine.aggregate runs)


(* The traced run. The wd-on round is repeated untraced and traced, with
   the same history as the end-to-end run, so the two must agree on every
   virtual output; the host difference is the tracing overhead. Wd-off,
   hooks-only (and on zkmini inferred-on) rounds split the wd-on cost:
   base + hooks + checkers = wd-on, exactly for bytes and events. *)
let traced ~kernel ~seed ~seconds spec =
  let stream = stream spec ~seed in
  ignore (setup ~kernel spec ~seed);
  let untraced, _, _ = measure ~kernel spec ~seed ~stream ~until:0. Wd_on in
  let mine_s, model =
    if spec.system <> "zkmini" then (0., None)
    else begin
      let t0 = now_ns () in
      let model = mine_model spec.system in
      ((now_ns () -. t0) /. 1e9, Some model)
    end
  in
  let split =
    [ Wd_off; Hooks_only ] @ Option.to_list (Option.map (fun m -> Inferred_on m) model)
  in
  let firsts =
    List.map
      (fun d ->
        let first, _, _ = measure ~kernel spec ~seed ~stream ~until:0. d in
        (deploy_name d, first))
      split
  in
  (* Every variant then runs in turn until the time is up, so a host phase
     change lands on all of them alike. A round's allocation depends on the
     deploy of the round before it (compiled state is shared), so the
     traced round follows an untraced wd-on round, as the reference round
     follows the wd-on warm-up; the split's bytes come from the first
     rounds, each right after its own warm-up. *)
  let variants =
    ("wd-on", fun () -> round ~kernel spec ~seed ~stream Wd_on)
    :: ("traced", fun () -> round ~traced:true ~kernel spec ~seed ~stream Wd_on)
    :: List.map
         (fun d -> (deploy_name d, fun () -> round ~kernel spec ~seed ~stream d))
         split
  in
  let gen0 = Generate.cache_stats () and ir0 = Interp.compile_cache_stats () in
  let runs = Hashtbl.create 8 in
  let t0 = now_ns () in
  let rec cycle () =
    List.iter (fun (name, f) -> Hashtbl.add runs name (f ())) variants;
    if now_ns () -. t0 < seconds *. 1e9 then cycle ()
  in
  cycle ();
  let gen_rate = rate_since gen0 (Generate.cache_stats ()) in
  let ir_rate = rate_since ir0 (Interp.compile_cache_stats ()) in
  let first name = List.assoc name (("wd-on", untraced) :: firsts) in
  (* Tracing must not perturb the simulation or its allocation; every
     other round must repeat its variant's virtual outputs. *)
  let rounds name = Hashtbl.find_all runs name in
  check (spec.name ^ " traced rounds = untraced wd-on round")
    (List.for_all (fun r -> r.exact = untraced.exact) (rounds "traced"))
    (Printf.sprintf "%d rounds, %.0f B each"
       (List.length (rounds "traced"))
       untraced.exact.x_alloc);
  List.iter
    (fun (name, _) ->
      if name <> "traced" then
        check
          (Printf.sprintf "%s %s rounds repeat (virtual)" spec.name name)
          (List.for_all (fun r -> same_virtual r.exact (first name).exact) (rounds name))
          (Printf.sprintf "%d rounds" (List.length (rounds name))))
    variants;
  let host name =
    let h = host_of (List.concat_map (fun r -> r.samples) (rounds name)) in
    show_host (spec.name ^ "/" ^ name) h;
    h
  in
  let ht = host "traced" and hu = host "wd-on" in
  let hoff = host "wd-off" and hhooks = host "hooks-only" in
  let ts = rounds "traced" in
  let l = Option.get (List.hd ts).layers and x = untraced.exact in
  let off = first "wd-off" and hooks = first "hooks-only" in
  let bytes r = r.exact.x_alloc /. float_of_int spec.requests in
  let events r = per_op spec r.exact.x_events in
  Printf.printf
    "split %s: base %.1f + hooks %.1f + checkers %.1f = wd-on %.1f B/op; \
     base %.3f + hooks %.3f + checkers %.3f = wd-on %.3f events/op\n%!"
    spec.name (bytes off) (bytes hooks -. bytes off)
    (bytes untraced -. bytes hooks) (bytes untraced) (events off)
    (events hooks -. events off) (events untraced -. events hooks)
    (events untraced);
  let infer_b, infer_us =
    match model with
    | None -> (0., 0.)
    | Some _ ->
        let hinf = host "inferred-on" in
        (bytes (first "inferred-on") -. bytes off, hinf.h_med_us -. hoff.h_med_us)
  in
  let prog =
    (Generate.analyze (Wd_harness.Inference.program_of spec.system))
      .Generate.red.Wd_analysis.Reduction.instrumented
  in
  let analyze_ns =
    cold ~kernel "Generate.analyze" (fun () ->
        ignore (Generate.analyze (Wd_harness.Inference.program_of spec.system)))
  in
  let precompile_ns =
    cold ~kernel "Interp.precompile" (fun () ->
        Interp.clear_compile_cache ();
        ignore (Interp.precompile prog))
  in
  let boot_ns =
    cold ~kernel "Systems.boot (warm)" (fun () -> ignore (boot spec ~seed Wd_on))
  in
  (* normalised host time inside [Sched.run ~until], over every traced round *)
  let sim_ns =
    Stats.sum (List.map norm (List.concat_map (fun r -> r.samples) ts))
    /. float_of_int (List.length ts)
  in
  let vsec = Time.to_float_sec x.x_vtime in
  ( spec.requests,
    spec.requests - x.x_ok,
    [
      ("sim.host_ns_per_event", sim_ns /. float_of_int x.x_events);
      ("sim.switches_per_op", per_op spec x.x_switches);
      ("sim.spawns_per_op", per_op spec x.x_spawns);
      ("sim.runq_depth_p50", Stats.median l.l_runq);
      ("sim.timers_p50", Stats.median l.l_timers);
      ("env.disk_reads_per_op", per_op spec l.l_disk_reads);
      ("env.disk_writes_per_op", per_op spec l.l_disk_writes);
      ("env.disk_bytes_per_op", per_op spec l.l_disk_bytes);
      ("env.disk_syncs_per_op", per_op spec l.l_disk_syncs);
      ("env.mem_pauses", float_of_int l.l_mem_pauses);
      ("ir.precompile_ms", precompile_ns /. 1e6);
      ("ir.compile_cache_hit_rate", ir_rate);
      ("ir.ic_refills", float_of_int l.l_ic_refills);
      ("gen.analyze_ms", analyze_ns /. 1e6);
      ("gen.cache_hit_rate", gen_rate);
      ("harness.boot_ms", boot_ns /. 1e6);
      ("base.host_us_per_op", hoff.h_med_us);
      ("base.alloc_bytes_per_op", bytes off);
      ("base.events_per_op", events off);
      ("hooks.host_us_per_op", hhooks.h_med_us -. hoff.h_med_us);
      ("hooks.alloc_bytes_per_op", bytes hooks -. bytes off);
      ("hooks.events_per_op", events hooks -. events off);
      ("checkers.host_us_per_op", hu.h_med_us -. hhooks.h_med_us);
      ("checkers.alloc_bytes_per_op", bytes untraced -. bytes hooks);
      ("checkers.events_per_op", events untraced -. events hooks);
      ("driver.runs_per_vsec", float_of_int l.l_driver_runs /. vsec);
      ("driver.timeouts", float_of_int l.l_driver_timeouts);
      ( "driver.skip_ratio",
        float_of_int l.l_driver_skips
        /. float_of_int (max 1 (l.l_driver_runs + l.l_driver_skips)) );
      ("schedule.dedup_skips", float_of_int l.l_dedup);
      ("schedule.shared_syncs", float_of_int l.l_shared);
      ("infer.host_us_per_op", infer_us);
      ("infer.alloc_bytes_per_op", infer_b);
      ("infer.mine_s", mine_s);
      ("loadgen.lateness_us_p99", float_of_int x.x_late_p99 /. 1e3);
      ("loadgen.inflight_p50", Stats.median l.l_inflight);
      ("loadgen.shed", float_of_int x.x_shed);
      ("loadgen.op_span_us_p50", Stats.median l.l_op_span_us);
      ("sweep.scenario_world_ms_p50", 0.);
      ("sweep.fault_free_world_ms_p50", 0.);
      ("sweep.fleet_world_ms_p50", 0.);
      ("sweep.detected_ratio", 0.);
      ("bench.raw_us_per_op", hu.h_raw_med_us);
      ("bench.ref_kernel_ms", hu.h_kernel_med_ms);
      ( "bench.trace_overhead_pct",
        100. *. (ht.h_med_us -. hu.h_med_us) /. hu.h_med_us );
    ] )
