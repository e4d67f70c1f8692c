(** The checker abstraction (§3.1, Table 2). Probe, signal and mimic
    checkers differ only in what {!field-run} does and what localisation they
    offer, so they share this one type and one driver. *)

type kind = Probe | Signal | Mimic

type outcome =
  | Pass
  | Skip of string  (** e.g. context not ready — counted, not a failure *)
  | Fail of Report.t

type t = {
  id : string;
  kind : kind;
  period : int64;
  timeout : int64;             (** the driver kills a run past this deadline *)
  slow_budget : int64 option;  (** absolute completed-but-slow threshold;
                                   [None] = the driver's adaptive baseline *)
  run : now:int64 -> outcome;
  locate :
    unit -> Wd_ir.Loc.t option * string * (string * Wd_ir.Ast.value) list;
      (** best-effort pinpoint after a timeout or crash:
          (location, op description, captured payload) *)
  slow_elapsed : unit -> int64 option;
      (** duration to assess for slowness after a Pass; [None] = wall time.
          Mimic checkers report operation time minus benign lock waits. *)
}

val kind_name : kind -> string

val make :
  ?kind:kind ->
  ?period:int64 ->
  ?timeout:int64 ->
  ?slow_budget:int64 ->
  ?locate:
    (unit -> Wd_ir.Loc.t option * string * (string * Wd_ir.Ast.value) list) ->
  ?slow_elapsed:(unit -> int64 option) ->
  id:string ->
  (now:int64 -> outcome) ->
  t

val pp : Format.formatter -> t -> unit
