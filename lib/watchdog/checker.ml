(* The checker abstraction (§3.1, Table 2). A checker is a scheduled piece
   of checking logic; the three construction styles — probe, signal, mimic —
   differ only in what [run] does and what localisation they can offer, so
   they share this one type and one driver. *)

type kind = Probe | Signal | Mimic

type outcome =
  | Pass
  | Skip of string (* e.g. context not ready — logged, not a failure *)
  | Fail of Report.t

type t = {
  id : string;
  kind : kind;
  period : int64;           (* scheduling interval *)
  timeout : int64;          (* driver kills the run past this deadline *)
  slow_budget : int64 option;  (* completed-but-slow threshold *)
  run : now:int64 -> outcome;
  locate : unit -> (Wd_ir.Loc.t option * string * (string * Wd_ir.Ast.value) list);
      (* best-effort pinpoint consulted after a timeout/crash:
         (location, op description, captured payload) *)
  slow_elapsed : unit -> int64 option;
      (* duration the driver should assess for slowness after a Pass;
         [None] means use the whole run's wall time. Mimic checkers report
         operation time excluding benign lock-contention waits. *)
}

let kind_name = function Probe -> "probe" | Signal -> "signal" | Mimic -> "mimic"

let make ?(kind = Mimic) ?(period = Wd_sim.Time.sec 1)
    ?(timeout = Wd_sim.Time.sec 10) ?slow_budget
    ?(locate = fun () -> (None, "", []))
    ?(slow_elapsed = fun () -> None) ~id run =
  { id; kind; period; timeout; slow_budget; run; locate; slow_elapsed }

let pp ppf c =
  Fmt.pf ppf "%s[%s] period=%a timeout=%a" c.id (kind_name c.kind)
    Wd_sim.Time.pp c.period Wd_sim.Time.pp c.timeout
