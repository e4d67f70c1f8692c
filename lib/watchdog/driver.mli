(** The watchdog driver (§3.1): schedules checkers, executes each run in a
    confined worker fiber with a deadline, catches failure signatures
    (error, crash, hang, slowness), debounces and validates them, and
    surfaces reports to registered actions. Each checker runs in its own
    daemon loop, sleeping its declared period.

    A hung or crashed checker never takes the driver down. *)

type t

val create : ?policy:Policy.t -> Wd_sim.Sched.t -> t

val schedule : t -> Schedule.t
(** The benchmark's scheduling contract (see {!Schedule}): its load probe
    is ignored and its counters are always 0. *)

val add_checker : t -> Checker.t -> unit
(** Before {!start}: queued. After: scheduled immediately. *)

val start : t -> unit
(** Put every queued checker on the schedule: one daemon loop each. *)

val stop : t -> unit

val on_report : t -> (Report.t -> unit) -> unit
(** Actions run on every surfaced report (alerting, recovery, ...). *)

val reports : t -> Report.t list
(** Surfaced reports, oldest first. *)

val suppressed : t -> Report.t list
(** Reports held back by validation (policy [suppress_unvalidated]). *)

val first_report : t -> Report.t option
val first_report_where : t -> (Report.t -> bool) -> Report.t option

type checker_stats = {
  cs_id : string;
  cs_kind : Checker.kind;
  cs_executions : int;
  cs_failures : int;
  cs_skips : int;
  cs_timeouts : int;
}

val stats : t -> checker_stats list
val checker_count : t -> int
