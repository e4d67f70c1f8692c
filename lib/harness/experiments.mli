(** The paper's tables, figures and preliminary results as runnable
    experiments (E1–E23; index in DESIGN.md, measured-vs-paper records in
    EXPERIMENTS.md). {!all} is the registry every front end reads; the
    [eN_run] values below return the structured results that the tests and
    the bench snapshot check. *)

val set_jobs : int -> unit
(** Set the domain-pool width every experiment fans its simulations across
    (clamped to >= 1). Defaults to [WD_JOBS] or the host's recommended
    domain count. Tables are byte-identical at any width. *)

val jobs : unit -> int
(** The effective width. *)

val set_seed : int -> unit
(** Override the base seed experiments derive their seed lists from (the
    repro [--seed] flag). Defaults to 42. *)

val base_seed : unit -> int
(** The effective base seed. *)

val e2_matches_expectation : Campaign.run -> bool
(** E2: does a Table 2 campaign run match its scenario's expected outcome? *)

(* E6 — generation statistics *)
val e6_run :
  unit -> (string * Wd_autowatchdog.Generate.generated * float) list

(* E8 — context synchronisation ablation *)
type e8_row = { e8_mode : string; e8_false_alarms : int; e8_skips : int }

val e8_run : unit -> e8_row list

(* E10 — isolation *)
type e10_result = {
  e10_scratch_disjoint : bool;
  e10_driver_survives : bool;
  e10_main_unperturbed : bool;
  e10_crashing_runs : int;
}

val e10_run : unit -> e10_result

(* E17 — fleet-level watchdogs over multi-node clusters (decentralized:
   leader-elected aggregation over the fabric) *)
val e17_run : unit -> Wd_cluster.Sim.result list

(* E19 — heterogeneous 9/15-node fleets over an asymmetric link fabric,
   graded on verdict priority under correlated failures *)
val e19_run : unit -> Wd_cluster.Sim.result list

(* E21 — checker-generation race: mimic (static analysis) vs trace-inferred
   checkers across the full catalog, in mimic-only / inferred-only /
   combined deployments *)
type e21_family = {
  e21f_family : string;
  e21f_detected : int;
  e21f_total : int;
  e21f_latency : Metrics.latency_stats;
  e21f_fp : int;  (** false positives over the fault-free runs *)
}

type e21_deploy = {
  e21d_label : string;
  e21d_any : int;  (** scenarios where any family detected *)
  e21d_total : int;
  e21d_families : e21_family list;
  e21d_fp : int;
  e21d_checkers : int;
  e21d_sim_events : int;
  e21d_overhead_pct : float;
      (** fault-free sim-event surplus vs a bare (no mimic, no inferred)
          baseline on the same worlds — deterministic, host-independent *)
}

type e21_result = {
  e21_mined_runs : int;
  e21_mined_events : int;
  e21_model_digest : string;
  e21_invariants : (string * int) list;
  e21_deploys : e21_deploy list;
}

val e21_run : unit -> e21_result

(* E22 — watchdog overhead under heavy traffic: the load plane (Loadgen)
   drives each workload with 10^5..10^6+ requests per deployment and
   compares watchdog-on / watchdog-off / inferred-on on the same virtual
   world *)
type e22_row = {
  e22r_deploy : string;  (** "wd-off" | "wd-on" | "inferred-on" *)
  e22r_load : Loadgen.result;
  e22r_sim_events : int;
      (** sim events up to the last accounted request
          ({!Loadgen.result.lr_events}) *)
  e22r_overhead_pct : float;
      (** sim-event inflation vs the wd-off row of the same workload —
          the work the watchdog adds; deterministic, host-independent *)
  e22r_p50_x : float;  (** p50 latency ratio vs the wd-off row *)
  e22r_p99_x : float;
  e22r_detect : int64 option;
      (** detection latency of a mid-load catalog fault (separate injected
          run at the same offered load); [None] when nothing detects *)
}

type e22_workload = {
  e22w_label : string;
  e22w_gen : string;  (** "closed" | "open" | "fleet" *)
  e22w_requests : int;  (** completed requests, all rows + injected runs *)
  e22w_rows : e22_row list;
}

type e22_result = {
  e22_workloads : e22_workload list;
  e22_total_requests : int;
}

type e22_alloc_row = {
  e22a_deploy : string;  (** "wd-off" | "wd-on" *)
  e22a_requests : int;  (** completed requests actually driven *)
  e22a_words_per_req : float;  (** minor-heap words per completed request *)
  e22a_bytes_per_req : float;
}

val e22_alloc : ?requests:int -> unit -> e22_alloc_row list
(** Minor-heap allocation per completed request on the zkmini closed loop,
    one row per deployment (wd-off, wd-on; inferred-on is skipped — it
    needs a mining pass). Runs inline on the calling domain because
    [Gc.minor_words] is per-domain; deterministic for a fixed seed. *)

val e22_run : ?requests:int -> unit -> e22_result
(** [requests] is the budget per deployment row of each workload
    (default 60000; detection runs use a quarter of it). *)

type e23_row = {
  e23f_mode : string;  (** "fixed": the one checker schedule *)
  e23f_overhead_pct : float;
      (** mean wd-on sim-event inflation vs the wd-off baseline across the
          E22 load plane, events counted up to each run's last request *)
  e23f_sched_events : int;
      (** checker-scheduling overhead: events above the hooks-only
          baseline (instrumented program, driver stopped at boot) up to
          each run's last request, summed over the load plane — context
          sync is a per-request cost *)
  e23f_p99_x : float;  (** worst p99 latency ratio vs wd-off *)
  e23f_load_detect : int64 option;
      (** worst detection latency of the mid-load catalog faults *)
  e23f_detected : int;
      (** full-catalog scenarios detected by an intrinsic checker class
          (mimic / probe / signal / inferred) *)
  e23f_catalog : int;
  e23f_worst_detect : int64 option;
      (** worst catalog detection latency over the detected scenarios *)
  e23f_mean_detect : int64 option;
  e23f_runs : int;
      (** checker executions across the wd-on load-plane runs, from
          {!Wd_watchdog.Driver.stats}; unlike the event counts, this covers
          the whole driven run, including the tail of {!Loadgen.drive}'s
          last step after the last request *)
}

type e23_result = {
  e23_rows : e23_row list;  (** the fixed row *)
  e23_scenarios : int;
  e23_requests : int;
}

val e23_run : ?requests:int -> unit -> e23_result
(** E23: watchdog overhead on the E22 load plane against detection latency
    across the full fault catalog, under the fixed checker schedule.
    [requests] is the load-plane budget per run (default 60000). *)

(** {1 The registry} *)

type budget = {
  b_flag : string;  (** the long flag, without dashes: "worlds" | "requests" *)
  b_doc : string;  (** what the number counts, for the flag's help *)
  b_default : int;
  b_min : int;  (** smallest accepted value *)
  b_error : string;  (** the message for a value below [b_min] *)
}
(** The size knob of an experiment whose cost scales with one number. *)

type t = {
  ex_name : string;  (** the [repro] subcommand *)
  ex_doc : string;  (** one line *)
  ex_budget : budget option;
  ex_render : ?budget:int -> unit -> string;
      (** runs the experiment and renders its table; [budget] (default
          [b_default]) is ignored when [ex_budget] is [None] and is not
          checked against [b_min] *)
}

val all : t list
(** Every experiment, in presentation order. *)

val find : string -> t
(** The entry named [name]; raises [Not_found] if there is none. *)
