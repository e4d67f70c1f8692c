(** One fleet member: a [wd_targets] instance plus its
    AutoWatchdog-generated driver, booted into a shared scheduler world
    with a *private* fault registry — a fault injected at ["disk:*"] on
    node 2 degrades node 2 only, even though every node names its disk
    identically.

    Nodes carry intrinsic evidence sources (generated mimic checkers,
    queue-depth signal checkers, a closed-loop client workload) and a
    bounded ring of recent report digests for gossip piggybacking; the
    ring, like the rest of the node state, is reachable only through the
    functions below. Cross-node probing and liveness gossip live in
    [Membership], correlation in [Fleet]. *)

type t

val boot :
  sched:Wd_sim.Sched.t ->
  system:Topology.system ->
  index:int ->
  unit ->
  t
(** Boot one node of the given (typed) target system. The fabric endpoint
    is [Fabric.node_name index]. *)

val id : t -> string
val index : t -> int
val system : t -> string
(** The target system's registry name, for tables and repro dispatch. *)

val reg : t -> Wd_env.Faultreg.t
(** The node's private fault registry: scenario injection degrades this
    node's environment only. *)

val driver : t -> Wd_watchdog.Driver.t
val workload : t -> Wd_targets.Workload.stats
val res : t -> Wd_ir.Runtime.resources
val tasks : t -> Wd_sim.Sched.task list

val local_probe : ?timeout:int64 -> t -> bool
(** Bounded end-to-end client operation through the local service, run by
    the membership responder before acking a peer's probe: a limping node
    answers gossip but fails this. *)

val start_burst : t -> unit
(** Open-loop burst flooder for the fleet-overload scenario: legitimate
    traffic, no fault anywhere. *)

val reports : t -> Wd_watchdog.Report.t list
val checker_count : t -> int

val recent_digests : t -> Fabric.digest list
(** Newest-first bounded view of the node's local report digests, the
    payload membership piggybacks on heartbeat gossip. *)

val kind_of_checker_id : string -> Wd_watchdog.Checker.kind
(** Classify a checker id by its ["probe:"] / ["signal:"] prefix
    convention (default: mimic). *)

val recover : t -> func:string -> reason:string -> bool
(** Execute a fleet [Recover] command: microreboot the component owning
    [func]. *)

val recovery_events : t -> Wd_watchdog.Recovery.event list
