(* repro — command-line front end for the paper's experiments.

     repro list                    list experiments and failure scenarios
     repro table1 | table2 | ...   run one experiment and print its table
     repro cluster | failover      fleet plane (E17) / leader failover (E18)
     repro all                     run every experiment
     repro scenario <sid>          run one catalog scenario in detail *)

open Cmdliner

(* The shared --jobs/--seed flags live in [Wd_harness.Cli], so repro and
   bench stay in lockstep. The IR engine is selected by WD_ENGINE only. *)
let jobs_arg = Wd_harness.Cli.jobs_arg
let seed_arg = Wd_harness.Cli.seed_arg
let apply_jobs = Wd_harness.Cli.apply_jobs
let apply_seed = Wd_harness.Cli.apply_seed

module Experiments = Wd_harness.Experiments

(* Every experiment subcommand comes from one registry entry: its name,
   doc, optional budget flag (checked against the entry's minimum) and
   renderer. *)
let experiment_cmd (e : Experiments.t) =
  let budget_arg =
    match e.Experiments.ex_budget with
    | None -> Term.const None
    | Some b ->
        Term.(
          const Option.some
          $ Arg.(
              value
              & opt int b.Experiments.b_default
              & info [ b.Experiments.b_flag ] ~docv:"N"
                  ~doc:
                    (Printf.sprintf "%s (default $(docv)=%d)."
                       b.Experiments.b_doc b.Experiments.b_default)))
  in
  let run budget jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    match (e.Experiments.ex_budget, budget) with
    | Some b, Some n when n < b.Experiments.b_min ->
        Fmt.epr "%s@." b.Experiments.b_error;
        1
    | _ ->
        print_string (e.Experiments.ex_render ?budget ());
        0
  in
  Cmd.v
    (Cmd.info e.Experiments.ex_name ~doc:e.Experiments.ex_doc)
    Term.(const run $ budget_arg $ jobs_arg $ seed_arg)

let list_cmd =
  let doc = "List experiments and failure scenarios." in
  let run () =
    print_endline "experiments:";
    List.iter
      (fun (e : Experiments.t) ->
        Printf.printf "  repro %s\n" e.Experiments.ex_name)
      Experiments.all;
    print_endline "\nfailure scenarios (repro scenario <sid>):";
    List.iter
      (fun s -> Fmt.pr "  %a@." Wd_faults.Catalog.pp_scenario s)
      Wd_faults.Catalog.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let all_cmd =
  let doc = "Run every experiment." in
  let run jobs seed =
    apply_jobs jobs;
    apply_seed seed;
    List.iter
      (fun (e : Experiments.t) ->
        Printf.printf "\n================ repro %s ================\n\n"
          e.Experiments.ex_name;
        print_string (e.Experiments.ex_render ()))
      Experiments.all;
    0
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ jobs_arg $ seed_arg)

let checkers_cmd =
  let doc =
    "Generate and print the watchdog checkers for a target system \
     (kvs | zkmini | dfsmini | cstore | mqbroker)."
  in
  let system =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM")
  in
  let run system =
    let prog =
      match system with
      | "kvs" -> Some (Wd_targets.Kvs.program ())
      | "zkmini" -> Some (Wd_targets.Zkmini.program ())
      | "dfsmini" -> Some (Wd_targets.Dfsmini.program ())
      | "cstore" -> Some (Wd_targets.Cstore.program ())
      | "mqbroker" -> Some (Wd_targets.Mqbroker.program ())
      | _ -> None
    in
    match prog with
    | None ->
        Fmt.epr "unknown system %s@." system;
        1
    | Some prog ->
        let g = Wd_autowatchdog.Generate.analyze prog in
        Fmt.pr "%a@." Wd_autowatchdog.Generate.pp_summary g;
        List.iter
          (fun u ->
            print_endline (Wd_autowatchdog.Generate.render_checker_source u))
          g.Wd_autowatchdog.Generate.units;
        0
  in
  Cmd.v (Cmd.info "checkers" ~doc) Term.(const run $ system)

let scenario_cmd =
  let doc = "Run one failure scenario and print per-detector outcomes." in
  let sid =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO")
  in
  let trace_flag =
    Arg.(value & flag & info [ "trace"; "t" ] ~doc:"Dump the scheduler-event timeline around the failure.")
  in
  let run sid with_trace =
    match Wd_faults.Catalog.find sid with
    | exception Invalid_argument m ->
        Fmt.epr "%s@." m;
        1
    | scenario when with_trace ->
        (* raw run with tracing enabled; dump the recent timeline *)
        let cfg = Wd_harness.Campaign.default_config in
        let sched = Wd_sim.Sched.create ~seed:cfg.Wd_harness.Campaign.seed () in
        let tr = Wd_sim.Trace.create ~capacity:16384 () in
        Wd_sim.Sched.set_trace sched tr;
        let reg = Wd_env.Faultreg.create () in
        let booted =
          Wd_harness.Systems.boot ~sched ~reg
            ~mode:cfg.Wd_harness.Campaign.mode
            ?special:scenario.Wd_faults.Catalog.special
            scenario.Wd_faults.Catalog.system
        in
        ignore (Wd_sim.Sched.run ~until:cfg.Wd_harness.Campaign.warmup sched);
        let inject_at = Wd_sim.Sched.now sched in
        ignore (Wd_faults.Catalog.inject reg scenario ~at:inject_at);
        (* stop shortly after the first report to keep the timeline tight *)
        let stop_at = ref Int64.max_int in
        Wd_watchdog.Driver.on_report booted.Wd_harness.Systems.b_driver
          (fun _ ->
            if !stop_at = Int64.max_int then
              stop_at := Int64.add (Wd_sim.Sched.now sched) (Wd_sim.Time.ms 10));
        let rec advance () =
          let target =
            min !stop_at (Int64.add (Wd_sim.Sched.now sched) (Wd_sim.Time.sec 1))
          in
          ignore (Wd_sim.Sched.run ~until:target sched);
          if
            Wd_sim.Sched.now sched < !stop_at
            && Wd_sim.Sched.now sched < Int64.add inject_at (Wd_sim.Time.sec 45)
          then advance ()
        in
        advance ();
        Fmt.pr "%a@.@." Wd_faults.Catalog.pp_scenario scenario;
        List.iter
          (fun r -> Fmt.pr "REPORT %a@." Wd_watchdog.Report.pp r)
          (Wd_watchdog.Driver.reports booted.Wd_harness.Systems.b_driver);
        Fmt.pr "@.scheduler timeline (last 40 events):@.";
        Wd_sim.Trace.dump ~n:40 Fmt.stdout (Option.get (Wd_sim.Sched.trace sched));
        0
    | scenario ->
        let r = Wd_harness.Campaign.run_scenario sid in
        Fmt.pr "%a@.@." Wd_faults.Catalog.pp_scenario scenario;
        List.iter
          (fun (name, (o : Wd_harness.Campaign.outcome)) ->
            Fmt.pr "  %-10s detected=%-5b latency=%-10s loc=%a@." name
              o.Wd_harness.Campaign.o_detected
              (match o.Wd_harness.Campaign.o_latency with
              | None -> "-"
              | Some l -> Wd_sim.Time.to_string l)
              Fmt.(option ~none:(any "-") Wd_ir.Loc.pp)
              o.Wd_harness.Campaign.o_loc)
          r.Wd_harness.Campaign.r_outcomes;
        Fmt.pr "  workload: %d ops, %.1f%% ok; %d checkers; %d pre-injection reports@."
          r.Wd_harness.Campaign.r_workload_issued
          (100. *. r.Wd_harness.Campaign.r_workload_ok_ratio)
          r.Wd_harness.Campaign.r_checker_count
          r.Wd_harness.Campaign.r_pre_inject_reports;
        0
  in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(const run $ sid $ trace_flag)

let () =
  let doc =
    "Reproduction of 'Comprehensive and Efficient Runtime Checking in System \
     Software through Watchdogs' (HotOS '19)"
  in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  Wd_harness.Cli.check_env ();
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          (list_cmd :: all_cmd :: scenario_cmd :: checkers_cmd
           :: List.map experiment_cmd Experiments.all)))
