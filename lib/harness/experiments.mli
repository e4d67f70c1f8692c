(** The paper's tables, figures and preliminary results as runnable
    experiments (E1–E14; index in DESIGN.md, measured-vs-paper records in
    EXPERIMENTS.md). Each [eN_run] returns structured results; each
    [eN_text] runs the experiment and renders its table. *)

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

(* E1 — Table 1 *)
type e1_row = {
  e1_scenario : string;
  e1_class : string;
  e1_crash_fd : bool;
  e1_error_handler : bool;
  e1_watchdog : bool;
}

val e1_run : unit -> e1_row list
val e1_text : unit -> string

(* E2 — Table 2 *)
type e2_agg = {
  e2_kind : string;
  e2_detected : int;
  e2_total : int;
  e2_false_alarms : int;
  e2_exact : int;
  e2_near : int;
  e2_detections_with_loc : int;
}

val e2_run : unit -> Campaign.run list * e2_agg list
val e2_matches_expectation : Campaign.run -> bool
val e2_text : unit -> string

(* E4 — Figures 2 & 3 *)
val e4_text : unit -> string

(* E5 — §4.2 ZOOKEEPER-2201 *)
type e5_result = {
  e5_mimic_latency : int64 option;
  e5_mimic_loc : string option;
  e5_heartbeat_detected : bool;
  e5_ruok_detected : bool;
  e5_rw_probe_latency : int64 option;
  e5_write_ok_before : bool;
  e5_write_ok_after : bool;
  e5_payload : (string * Wd_ir.Ast.value) list;
}

val e5_run : unit -> e5_result
val e5_text : unit -> string

(* E6 — generation statistics *)
val e6_run :
  unit -> (string * Wd_autowatchdog.Generate.generated * float) list
val e6_text : unit -> string

(* E7 — concurrent vs in-place overhead *)
type e7_row = {
  e7_mode : string;
  e7_ops : int;
  e7_ok_ratio : float;
  e7_mean_latency : int64;
  e7_p99_latency : int64;
}

val e7_run : unit -> e7_row list
val e7_text : unit -> string

(* E8 — context synchronisation ablation *)
type e8_row = { e8_mode : string; e8_false_alarms : int; e8_skips : int }

val e8_run : unit -> e8_row list
val e8_text : unit -> string

(* E9 — memory-pressure fate sharing *)
val e9_run : unit -> Campaign.run
val e9_text : unit -> string

(* E10 — isolation *)
type e10_result = {
  e10_scratch_disjoint : bool;
  e10_driver_survives : bool;
  e10_main_unperturbed : bool;
  e10_crashing_runs : int;
}

val e10_run : unit -> e10_result
val e10_text : unit -> string

(* E11 — cheap recovery *)
type e11_row = {
  e11_mode : string;
  e11_ok_during : int;
  e11_ok_after : int;
  e11_restored_after : int64 option;
  e11_reboots : int;
}

val e11_run : unit -> e11_row list
val e11_text : unit -> string

(* E12 — failure reproduction *)
type e12_result = {
  e12_report : string;
  e12_clean : Wd_autowatchdog.Reproduce.outcome;
  e12_with_fault : Wd_autowatchdog.Reproduce.outcome;
}

val e12_run : unit -> e12_result
val e12_text : unit -> string

(* E13 — accuracy under overload *)
type e13_result = {
  e13_mimic_alarms : int;
  e13_probe_alarms : int;
  e13_signal_alarms : int;
  e13_issued : int;
}

val e13_run : unit -> e13_result
val e13_text : unit -> string

(* E15 — detection-budget sweep *)
type e15_point = {
  e15_period : int64;
  e15_lock_timeout : int64;
  e15_latency : int64 option;
  e15_ff_false_alarms : int;
}

val e15_run : unit -> e15_point list
val e15_text : unit -> string

(* E20 — randomized fault-space sweep *)
val e20_default_worlds : int

val e20_run : ?worlds:int -> unit -> Sweep.summary * Sweep.outcome list
(** Generate and run a {!Sweep} grid of [worlds] worlds (default
    {!e20_default_worlds}) under the harness-wide jobs and seed overrides.
    The outcome list is byte-identical at any jobs width. *)

val e20_text : ?worlds:int -> unit -> string
(** Runs the sweep and renders the oracle aggregate, listing any worlds
    that missed their oracle. *)

(* E14 — reduction ablations *)
val e14_run :
  unit -> (string * (string * Wd_analysis.Reduction.stats) list) list
val e14_text : unit -> string

(* E16 — multi-seed robustness *)
val e16_run : unit -> (string * Metrics.latency_stats * int) list
val e16_text : unit -> string

(* E17 — fleet-level watchdogs over multi-node clusters (decentralized:
   leader-elected aggregation over the fabric) *)
val e17_run : unit -> Wd_cluster.Sim.result list
val e17_text : unit -> string

(* E18 — leader failover: successor election, verdict-driven recovery,
   cross-node reproduction from shipped evidence bytes *)
type e18_cell = {
  e18_system : string;
  e18_seed : int;
  e18_res : Wd_cluster.Sim.result;
  e18_successor : string option;
      (** which node's engine recorded the indictment *)
  e18_failover : int64 option;
      (** injection -> every node agrees on the successor *)
  e18_victim_recovered : bool;
      (** the old leader microrebooted on the fleet's Recover command *)
  e18_repro : Wd_autowatchdog.Reproduce.outcome option;
      (** shipped evidence bytes replayed under the re-injected fault *)
}

val e18_run : unit -> e18_cell list
val e18_text : unit -> string

(* E19 — heterogeneous 9/15-node fleets over an asymmetric link fabric,
   graded on verdict priority under correlated failures *)
val e19_run : unit -> Wd_cluster.Sim.result list
val e19_text : unit -> string

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

val e21_mine : unit -> Inference.mined
(** Mine and synthesize the inferred generation under the harness-wide
    jobs override (digest-deterministic at any width). *)

val e21_run : unit -> e21_result
val e21_text : unit -> string

(* E22 — watchdog overhead under heavy traffic: the load plane (Loadgen)
   drives each workload with 10^5..10^6+ requests per deployment and
   compares watchdog-on / watchdog-off / inferred-on on the same virtual
   world *)
type e22_row = {
  e22r_deploy : string;  (** "wd-off" | "wd-on" | "inferred-on" *)
  e22r_load : Loadgen.result;
  e22r_sim_events : int;
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

val e22_default_requests : int

val e22_run : ?requests:int -> ?fleet_requests:int -> unit -> e22_result
(** [requests] is the budget per deployment row of each single-node
    workload (detection runs use a quarter of it); [fleet_requests]
    (default [requests]) is the fleet row's budget. *)

val e22_text : ?requests:int -> ?fleet_requests:int -> unit -> string

type e23_row = {
  e23f_mode : string;  (** "fixed": the one checker schedule *)
  e23f_overhead_pct : float;
      (** mean wd-on sim-event inflation vs the wd-off baseline across the
          E22 load plane *)
  e23f_sched_events : int;
      (** checker-scheduling overhead: events above the hooks-only
          baseline (instrumented program, driver stopped at boot) summed
          over the load plane — context sync is a per-request cost *)
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
          {!Wd_watchdog.Driver.stats} *)
}

type e23_result = {
  e23_rows : e23_row list;  (** the fixed row *)
  e23_scenarios : int;
  e23_requests : int;
}

val e23_run : ?requests:int -> unit -> e23_result
(** E23: watchdog overhead on the E22 load plane against detection latency
    across the full fault catalog, under the fixed checker schedule.
    [requests] is the load-plane budget per run (default
    {!e22_default_requests}). *)

val e23_text : ?requests:int -> unit -> string

val all_texts : unit -> (string * (unit -> string)) list
(** (experiment name, renderer) pairs, in presentation order. *)
