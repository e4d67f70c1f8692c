(* One fleet member: a [wd_targets] instance plus its AutoWatchdog-generated
   driver, booted into a shared scheduler world. Each node gets a *private*
   fault registry, so a fault injected at "disk:*" on node 2 degrades node 2
   only even though every node names its disk identically — the per-node
   scoping the cluster catalog relies on.

   Nodes carry their intrinsic evidence sources (generated mimic checkers,
   queue-depth signal checkers, a closed-loop client workload); cross-node
   probing and liveness gossip live in [Membership], and correlation lives
   in [Fleet] — deliberately off the node's hot path. *)

module Generate = Wd_autowatchdog.Generate
module Checker = Wd_watchdog.Checker
module Driver = Wd_watchdog.Driver

type target =
  | Zk of Wd_targets.Zkmini.t
  | Cs of Wd_targets.Cstore.t

type t = {
  index : int;
  id : string; (* fabric endpoint, "n<index>" *)
  system : string;
  sched : Wd_sim.Sched.t;
  reg : Wd_env.Faultreg.t; (* private: faults here hit this node only *)
  driver : Driver.t;
  workload : Wd_targets.Workload.stats;
  target : target;
  res : Wd_ir.Runtime.resources;
  tasks : Wd_sim.Sched.task list;
  recovery : Wd_watchdog.Recovery.t;
      (* microreboot plane, driven by fleet [Recover] commands — the node
         never self-heals on local reports alone *)
  digests : Fabric.digest list ref;
      (* newest-first bounded buffer of local report digests, piggybacked
         on heartbeat gossip for leader-side corroboration *)
}

let digest_cap = 16

let digest_of (r : Wd_watchdog.Report.t) =
  {
    Fabric.d_checker = r.Wd_watchdog.Report.checker_id;
    d_fkind = Wd_watchdog.Report.fkind_name r.Wd_watchdog.Report.fkind;
    d_at = r.Wd_watchdog.Report.at;
  }

let take n l = List.filteri (fun i _ -> i < n) l

(* Same id-prefix convention as Campaign.classify_checker, local to avoid a
   wd_harness dependency (wd_harness depends on wd_cluster, not vice versa). *)
let kind_of_checker_id id : Checker.kind =
  let has_prefix p =
    String.length id >= String.length p && String.sub id 0 (String.length p) = p
  in
  if has_prefix "probe:" then Checker.Probe
  else if has_prefix "signal:" then Checker.Signal
  else Checker.Mimic

let boot ~sched ~system ~index () =
  let id = Fabric.node_name index in
  let reg = Wd_env.Faultreg.create () in
  let driver = Driver.create sched in
  let wstats = Wd_targets.Workload.create_stats () in
  let recovery = Wd_watchdog.Recovery.create sched in
  let digests = ref [] in
  Driver.on_report driver (fun r ->
      digests := take digest_cap (digest_of r :: !digests));
  match (system : Topology.system) with
  | Topology.Zkmini ->
      let prog = Wd_targets.Zkmini.program () in
      let g = Generate.analyze_cached prog in
      let t =
        Wd_targets.Zkmini.boot ~sched ~reg
          ~prog:g.Generate.red.Wd_analysis.Reduction.instrumented ()
      in
      ignore
        (Generate.attach ~progress:(Wd_sim.Time.sec 20) g ~sched
           ~main:t.Wd_targets.Zkmini.leader ~driver);
      Driver.add_checker driver
        (Wd_detectors.Signalmon.queue_depth ~id:"signal:reqq"
           ~res:t.Wd_targets.Zkmini.res ~queue:Wd_targets.Zkmini.request_queue
           ~max_depth:64);
      let wl =
        Wd_targets.Workload.spawn
          ~name:(id ^ "-client")
          ~sched ~period:(Wd_sim.Time.ms 60)
          ~op:(fun i ->
            let path = Fmt.str "/node%02d" (i mod 20) in
            if i mod 3 = 0 then Wd_targets.Zkmini.get t ~path
            else Wd_targets.Zkmini.create t ~path ~data:(Fmt.str "d%d" i))
          wstats
      in
      let tasks = Wd_targets.Zkmini.start t in
      (* leader entries come first in [start]'s task list *)
      Generate.register_components recovery ~sched
        ~main:t.Wd_targets.Zkmini.leader
        ~entries:Wd_targets.Zkmini.leader_entries
        ~tasks:(take (List.length Wd_targets.Zkmini.leader_entries) tasks);
      Driver.start driver;
      {
        index;
        id;
        system = Topology.system_name system;
        sched;
        reg;
        driver;
        workload = wstats;
        target = Zk t;
        res = t.Wd_targets.Zkmini.res;
        tasks = wl :: tasks;
        recovery;
        digests;
      }
  | Topology.Cstore ->
      let prog = Wd_targets.Cstore.program () in
      let g = Generate.analyze_cached prog in
      let t =
        Wd_targets.Cstore.boot ~sched ~reg
          ~prog:g.Generate.red.Wd_analysis.Reduction.instrumented ()
      in
      ignore
        (Generate.attach ~progress:(Wd_sim.Time.sec 20) g ~sched
           ~main:t.Wd_targets.Cstore.main ~driver);
      Driver.add_checker driver
        (Wd_detectors.Signalmon.queue_depth ~id:"signal:reqq"
           ~res:t.Wd_targets.Cstore.res ~queue:Wd_targets.Cstore.request_queue
           ~max_depth:64);
      let wl =
        Wd_targets.Workload.spawn
          ~name:(id ^ "-client")
          ~sched ~period:(Wd_sim.Time.ms 50)
          ~op:(fun i ->
            let key = Fmt.str "row%03d" (i mod 40) in
            if i mod 3 = 2 then Wd_targets.Cstore.read t ~key
            else Wd_targets.Cstore.write t ~key ~value:(Fmt.str "cell%d" i))
          wstats
      in
      let tasks = Wd_targets.Cstore.start t in
      Generate.register_components recovery ~sched
        ~main:t.Wd_targets.Cstore.main ~entries:Wd_targets.Cstore.entries
        ~tasks;
      Driver.start driver;
      {
        index;
        id;
        system = Topology.system_name system;
        sched;
        reg;
        driver;
        workload = wstats;
        target = Cs t;
        res = t.Wd_targets.Cstore.res;
        tasks = wl :: tasks;
        recovery;
        digests;
      }

(* Bounded end-to-end client operation, run by the membership responder
   before acking a peer's probe: a limping node answers gossip (pure
   network) but fails this (full request pipeline through its slow disk). *)
let local_probe ?(timeout = Wd_sim.Time.ms 800) t =
  match t.target with
  | Zk zk -> (
      match Wd_targets.Zkmini.create ~timeout zk ~path:"/__fleet" ~data:"p" with
      | `Ok _ -> true
      | `Timeout | `Err _ -> false)
  | Cs cs -> (
      match Wd_targets.Cstore.write ~timeout cs ~key:"__fleet" ~value:"p" with
      | `Ok _ -> true
      | `Timeout | `Err _ -> false)

(* Open-loop burst flooder for the fleet-overload scenario: legitimate
   traffic pushed straight into the request queue, no fault anywhere. The
   signal checkers alarm (queue over budget) while mimic checkers stay
   quiet — the paper's §4.2 false-alarm case at fleet scope. *)
let start_burst t =
  let queue, mk =
    match t.target with
    | Zk _ ->
        ( Wd_targets.Zkmini.request_queue,
          fun i ->
            Wd_ir.Ast.VMap
              [
                ("reply", Wd_ir.Ast.VStr "");
                ("op", Wd_ir.Ast.VStr "create");
                ("path", Wd_ir.Ast.VStr (Fmt.str "/burst%d" (i mod 8)));
                ("data", Wd_ir.Ast.VStr "x");
              ] )
    | Cs _ ->
        ( Wd_targets.Cstore.request_queue,
          fun i ->
            Wd_ir.Ast.VMap
              [
                ("reply", Wd_ir.Ast.VStr "");
                ("op", Wd_ir.Ast.VStr "write");
                ("key", Wd_ir.Ast.VStr (Fmt.str "burst%d" (i mod 8)));
                ("value", Wd_ir.Ast.VStr "x");
              ] )
  in
  ignore
    (Wd_sim.Sched.spawn ~name:(t.id ^ "-burst") ~daemon:true t.sched (fun () ->
         let inq = Wd_ir.Runtime.queue t.res queue in
         let i = ref 0 in
         while true do
           (* each burst takes the service ~1s to absorb, so the depth
              sampler is guaranteed to see the backlog at least once *)
           Wd_sim.Sched.sleep (Wd_sim.Time.sec 5);
           for _ = 1 to 2000 do
             incr i;
             ignore (Wd_sim.Channel.try_send inq (mk !i))
           done
         done))

let reports t = Driver.reports t.driver
let checker_count t = Driver.checker_count t.driver

(* --- accessors (the record is abstract outside this module) ------------ *)

let id t = t.id
let index t = t.index
let system t = t.system
let reg t = t.reg
let driver t = t.driver
let workload t = t.workload
let res t = t.res
let tasks t = t.tasks

(* --- fleet-driven recovery and gossip corroboration -------------------- *)

let recent_digests t = !(t.digests)

(* Command entry point for a fleet [Recover] message: microreboot the
   component owning [func]. The fleet plane localised the failure from this
   node's own shipped mimic report; the node just executes. *)
let recover t ~func ~reason =
  Wd_watchdog.Recovery.recover_function t.recovery ~func ~reason

let recovery_events t = Wd_watchdog.Recovery.events t.recovery
