(** Per-target adapters: boot a system with its generated watchdog, the
    baseline detectors (probe / signal / heartbeat / observer) and a client
    workload, exposing the uniform surface the campaign runner drives. *)

type watchdog_mode =
  | Wd_generated   (** full AutoWatchdog: mimic checkers + context sync *)
  | Wd_no_context  (** ablation: naive mimic checkers, no state sync *)
  | Wd_none        (** no intrinsic watchdog *)

type booted = {
  b_system : string;
  b_sched : Wd_sim.Sched.t;
  b_reg : Wd_env.Faultreg.t;
  b_generated : Wd_autowatchdog.Generate.generated option;
  b_driver : Wd_watchdog.Driver.t;
  b_heartbeat : Wd_detectors.Heartbeat.t;
  b_observer : Wd_detectors.Observer.t;
  b_workload : Wd_targets.Workload.stats;
  b_tasks : Wd_sim.Sched.task list;
  b_crash : unit -> unit;  (** simulate a whole-process crash *)
  b_mem : Wd_env.Memory.t;
  b_res : Wd_ir.Runtime.resources;
  b_client : int -> [ `Ok of Wd_ir.Ast.value | `Err of string | `Timeout ];
      (** issue one client request by index — the entry point load
          generators drive; must be called from inside a task. Uses a wider
          keyspace than the background workload and no per-call formatting
          on the request path. *)
}

val boot :
  sched:Wd_sim.Sched.t ->
  reg:Wd_env.Faultreg.t ->
  mode:watchdog_mode ->
  ?special:string ->
  string ->
  booted
(** Boot "kvs", "zkmini", "dfsmini" or "cstore". [special] selects boot
    variants: "leak_bug", "in_memory", "burst" (kvs only). The target and
    its checkers run on the process-wide {!Wd_ir.Interp.default_engine}. *)

val all_systems : string list
