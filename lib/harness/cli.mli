(** Shared campaign-wide CLI flags ([--jobs], [--seed]) for both front
    ends: cmdliner terms for [bin/repro], a plain argv scan for [bench]
    (bechamel owns its argv). One module so the flags' names, parsing and
    application cannot drift apart. The IR engine has no flag: the
    process-wide default ([WD_ENGINE] / {!Wd_ir.Interp.set_default_engine})
    is its one selector. *)

val check_env : unit -> unit
(** Validate the WD_* environment with {!Wd_config.Env.load}; on [Error],
    print the message (it names the variable) and exit 2. Front ends call
    this first, before anything reads the environment. *)

(** {2 cmdliner terms} *)

val jobs_arg : int option Cmdliner.Term.t
(** [--jobs]/[-j]: domain-pool width. Tables are byte-identical at any
    width; the flag only changes wall-clock. *)

val seed_arg : int option Cmdliner.Term.t
(** [--seed]/[-s]: base seed for seed-fanned experiments (default 42). *)

val apply_jobs : int option -> unit
val apply_seed : int option -> unit
(** Apply a parsed flag (no-op on [None]) to the process-wide experiment
    knobs in {!Experiments}. *)

(** {2 plain argv scan} *)

type opts = {
  o_jobs : int option;
  o_seed : int option;
  o_json : bool;  (** bench's [--json] *)
}

val scan : string list -> (opts, string) result
(** Parse an argv tail (without the program name): [--jobs]/[-j],
    [--seed]/[-s] and [--json]. Any other argument, or a malformed value,
    is an [Error]. *)

val apply_opts : opts -> unit
