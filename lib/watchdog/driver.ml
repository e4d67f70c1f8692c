(* The watchdog driver (§3.1): schedules checkers, executes each one in an
   isolated task with a deadline, catches failure signatures (error, crash,
   hang, slowness), debounces and validates them, and surfaces reports to
   registered actions.

   Each checker runs in its own daemon loop, sleeping its declared period.

   A hung or crashed checker never takes the driver down: execution goes
   through a per-entry [Sched.runner] — a persistent worker fiber with the
   exact virtual-time schedule of [Sched.timeout_join], minus the task
   spawn per run — which confines the checker to a worker the driver kills
   on timeout. *)

type entry = {
  checker : Checker.t;
  runner : Wd_sim.Sched.runner;
  mutable executions : int;
  mutable failures : int;
  mutable skips : int;
  mutable timeouts : int;
  mutable consecutive : int;
  mutable last_key : string;
  mutable last_report_at : int64;
  mutable lat_baseline : float; (* EWMA of fault-free run duration, ns *)
  mutable lat_samples : int;
  mutable task : Wd_sim.Sched.task option; (* the checker's daemon loop *)
}

type t = {
  sched : Wd_sim.Sched.t;
  policy : Policy.t;
  (* dedup keys, memoised per (checker, failure kind, loc uid): a report
     storm from one site re-delivers the same key without re-formatting *)
  keys : (string * string * int, string) Hashtbl.t;
  mutable entries : entry list;
  mutable reports : Report.t list;
  mutable suppressed : Report.t list;
  mutable actions : (Report.t -> unit) list;
  mutable started : bool;
  mutable stopped : bool;
}

let create ?(policy = Policy.default) sched =
  {
    sched;
    policy;
    keys = Hashtbl.create 64;
    entries = [];
    reports = [];
    suppressed = [];
    actions = [];
    started = false;
    stopped = false;
  }

let schedule _ = Schedule.create ()

let on_report t action = t.actions <- action :: t.actions

let report_key t r =
  let fkind = Report.fkind_name r.Report.fkind in
  let uid =
    match r.Report.loc with Some l -> Wd_ir.Loc.uid l | None -> min_int
  in
  let k = (r.Report.checker_id, fkind, uid) in
  match Hashtbl.find_opt t.keys k with
  | Some key -> key
  | None ->
      let key =
        r.Report.checker_id ^ "/" ^ fkind ^ "/"
        ^ (if uid = min_int then "-" else string_of_int uid)
      in
      Hashtbl.add t.keys k key;
      key

let deliver t entry (r : Report.t) =
  entry.consecutive <- entry.consecutive + 1;
  entry.failures <- entry.failures + 1;
  if entry.consecutive < t.policy.confirmations then ()
  else begin
    let key = report_key t r in
    let now = Wd_sim.Sched.now t.sched in
    let duplicate =
      String.equal key entry.last_key
      && Int64.sub now entry.last_report_at < t.policy.dedup_window
    in
    if duplicate then ()
    else begin
      entry.last_key <- key;
      entry.last_report_at <- now;
      (match (t.policy.validate, entry.checker.Checker.kind) with
      | Some validate, Checker.Mimic -> r.validated <- Some (validate r)
      | Some _, (Checker.Probe | Checker.Signal) | None, _ -> ());
      if t.policy.suppress_unvalidated && r.validated = Some false then
        t.suppressed <- r :: t.suppressed
      else begin
        t.reports <- r :: t.reports;
        List.iter (fun act -> act r) t.actions
      end
    end
  end

let run_once t entry =
  let c = entry.checker in
  entry.executions <- entry.executions + 1;
  let started = Wd_sim.Sched.now t.sched in
  let outcome =
    Wd_sim.Sched.runner_run entry.runner ~timeout:c.Checker.timeout
      (fun () -> c.Checker.run ~now:started)
  in
  let elapsed = Int64.sub (Wd_sim.Sched.now t.sched) started in
  match outcome with
  | Ok Checker.Pass ->
      let elapsed =
        match c.Checker.slow_elapsed () with Some d -> d | None -> elapsed
      in
      let slow_threshold =
        match c.Checker.slow_budget with
        | Some budget -> Some budget
        | None ->
            if entry.lat_samples >= t.policy.slow_min_samples then
              Some
                (max t.policy.slow_floor
                   (Int64.of_float (t.policy.slow_mult *. entry.lat_baseline)))
            else None
      in
      (match slow_threshold with
      | Some threshold when elapsed > threshold ->
          let loc, op_desc, payload = c.Checker.locate () in
          deliver t entry
            (Report.make ~at:(Wd_sim.Sched.now t.sched) ~checker_id:c.Checker.id
               ~fkind:Report.Slow ?loc ~op_desc ~payload ())
      | Some _ | None ->
          (* fold this normal run into the latency baseline *)
          let x = Int64.to_float elapsed in
          entry.lat_baseline <-
            (if entry.lat_samples = 0 then x
             else (0.8 *. entry.lat_baseline) +. (0.2 *. x));
          entry.lat_samples <- entry.lat_samples + 1;
          entry.consecutive <- 0)
  | Ok (Checker.Skip _) -> entry.skips <- entry.skips + 1
  | Ok (Checker.Fail r) -> deliver t entry r
  | Error `Timeout ->
      entry.timeouts <- entry.timeouts + 1;
      let loc, op_desc, payload = c.Checker.locate () in
      deliver t entry
        (Report.make ~at:(Wd_sim.Sched.now t.sched) ~checker_id:c.Checker.id
           ~fkind:Report.Hang ?loc ~op_desc ~payload ())
  | Error (`Exn e) ->
      let loc, op_desc, payload = c.Checker.locate () in
      let fkind =
        match e with
        | Wd_ir.Interp.Violation { vkind = "liveness"; msg; _ } ->
            (* try-lock timeout and friends: liveness, not a crash *)
            ignore msg;
            Report.Hang
        | Wd_ir.Interp.Violation { msg; _ } -> Report.Assert_fail msg
        | Wd_env.Disk.Io_error m
        | Wd_env.Net.Net_error m
        | Wd_env.Memory.Out_of_memory m ->
            Report.Error_sig m
        | e -> Report.Checker_crash (Printexc.to_string e)
      in
      deliver t entry
        (Report.make ~at:(Wd_sim.Sched.now t.sched) ~checker_id:c.Checker.id
           ~fkind ?loc ~op_desc ~payload ())
  | Error `Killed ->
      (* stop() raced with this execution; not a finding *)
      ()

let schedule_entry t entry =
  let checker = entry.checker in
  let task =
    Wd_sim.Sched.spawn ~name:("wd:" ^ checker.Checker.id) ~daemon:true t.sched
      (fun () ->
        while not t.stopped do
          Wd_sim.Sched.sleep checker.Checker.period;
          if not t.stopped then run_once t entry
        done)
  in
  entry.task <- Some task

let add_checker t checker =
  let entry =
    {
      checker;
      runner = Wd_sim.Sched.runner ~name:(checker.Checker.id ^ "#run") t.sched;
      executions = 0;
      failures = 0;
      skips = 0;
      timeouts = 0;
      consecutive = 0;
      last_key = "";
      last_report_at = -1_000_000_000_000_000L; (* overflow-safe "never" *)
      lat_baseline = 0.0;
      lat_samples = 0;
      task = None;
    }
  in
  t.entries <- entry :: t.entries;
  if t.started && not t.stopped then schedule_entry t entry

let start t =
  if t.started then invalid_arg "Driver.start: already started";
  t.started <- true;
  let pending = t.entries in
  t.entries <- [];
  List.iter (fun e -> add_checker t e.checker) pending

(* Workers are deliberately NOT killed here: a worker mid-checker keeps
   running to completion exactly like an in-flight [timeout_join] child
   did, and an idle worker parks on a daemon suspend — neither perturbs
   the schedule. Killing them would add runq activity that the historical
   stop() did not have (crash scenarios call stop mid-run and their
   schedules are digest-pinned). *)
let stop t =
  t.stopped <- true;
  List.iter
    (fun e ->
      match e.task with
      | Some task -> Wd_sim.Sched.kill t.sched task
      | None -> ())
    t.entries

let reports t = List.rev t.reports
let suppressed t = List.rev t.suppressed

let first_report t =
  match List.rev t.reports with [] -> None | r :: _ -> Some r

let first_report_where t pred =
  List.find_opt pred (List.rev t.reports)

type checker_stats = {
  cs_id : string;
  cs_kind : Checker.kind;
  cs_executions : int;
  cs_failures : int;
  cs_skips : int;
  cs_timeouts : int;
}

let stats t =
  List.rev_map
    (fun e ->
      {
        cs_id = e.checker.Checker.id;
        cs_kind = e.checker.Checker.kind;
        cs_executions = e.executions;
        cs_failures = e.failures;
        cs_skips = e.skips;
        cs_timeouts = e.timeouts;
      })
    t.entries

let checker_count t = List.length t.entries
