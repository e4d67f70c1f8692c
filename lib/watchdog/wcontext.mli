(** Watchdog context table (§3.1 state synchronisation).

    Hooks in the main program push live values in — one-way, the main
    program never reads the table — and the driver checks readiness and
    fetches arguments before running a checker. Context replication
    (checkers never alias mutable main-program memory) is implemented
    copy-on-write: persistent values are shared, bytes-containing values
    are copied on read with the copy cached against a per-slot version
    stamp. Observably identical to deep-copying on every fetch. *)

type t

val create : unit -> t

val register_unit : t -> unit_id:string -> params:string list -> unit
(** Declare a checker's context: its ordered parameter list. A unit with no
    parameters is always {!ready}. *)

val bind_hook :
  t -> hook_id:int -> unit_id:string -> captures:(string * string) list -> unit
(** [captures] maps (context param, temporary variable captured in main). *)

val sink : t -> now:int64 -> int -> (string * Wd_ir.Ast.value) list -> unit
(** The hook sink: deliver (tmp var, value) pairs for a hook id. Unknown
    hooks and variables are ignored. *)

val ready : t -> string -> bool
(** All parameters have been captured at least once. *)

val args : t -> string -> Wd_ir.Ast.value list option
(** Ordered argument list, observably a deep copy; [None] until ready. *)

val snapshot : t -> string -> (string * Wd_ir.Ast.value) list
(** Captured (param, value) pairs, for failure-report payloads. *)

val staleness : t -> now:int64 -> string -> int64 option
(** Age of the stalest slot: how long since the main program last passed
    the corresponding hook. *)

val updates : t -> string -> int
val total_updates : t -> int
