(** Typed, [Result]-returning loader for the process environment knobs
    ([WD_JOBS], [WD_ENGINE]). The single parse site: no other module calls
    [Sys.getenv] for these. Dependency-free so both the domain pool and the
    interpreter can consume it. Front ends call {!load} first and report an
    [Error] themselves, so {!get} never fails in a running [repro] or
    [bench]. *)

type engine = [ `Compiled | `Treewalk ]
(** Structurally identical to [Wd_ir.Interp.engine]; declared here so this
    library needs no dependencies. *)

type t = {
  jobs : int option;  (** [WD_JOBS]: domain-pool width; must be positive *)
  engine : engine option;  (** [WD_ENGINE]: [compiled] or [treewalk] *)
}

val load : unit -> (t, string) result
(** Parse the environment. [Error] names the offending variable and value;
    unset or empty variables are [None], never errors. [compiled] /
    [treewalk] are matched case-insensitively, with a few historical
    spellings of the latter. *)

val get : unit -> t
(** Memoised {!load}; raises [Failure] with the {!load} error message on a
    malformed environment. Consumers read it lazily, at first use, never at
    module initialisation. *)
