(** The benchmark's contract: workloads and metric definitions. *)

type better = Lower | Higher

val workloads : (string * string) list
(** (name, why) *)

val run_seconds : int

val end_to_end : (string * string * better * float) list
(** (name, unit, better, bound): the metrics a [--trace 0] run prints. *)

val per_layer : (string * string * better) list
(** (name, unit, better): the metrics a [--trace 1] run prints. *)

val manifest : unit -> string
(** The text of BENCHMARK.json. *)
