(* The one place process environment is read. Every consumer goes through
   this typed loader, so a malformed value is a diagnosable error rather
   than a silent fallback. This library sits below everything (no deps), so
   both [Wd_parallel.Pool] and [Wd_ir.Interp] can consume it. *)

type engine = [ `Compiled | `Treewalk ]

type t = {
  jobs : int option;  (* WD_JOBS: domain-pool width; must be positive *)
  engine : engine option;  (* WD_ENGINE: compiled | treewalk *)
}

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "compiled" -> Some `Compiled
  | "treewalk" | "tree-walk" | "treewalker" -> Some `Treewalk
  | _ -> None

let ( let* ) = Result.bind

let parse_jobs = function
  | None | Some "" -> Ok None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> Ok (Some n)
      | Some _ | None ->
          Error ("WD_JOBS: expected a positive integer, got " ^ String.escaped s)
      )

let parse_engine = function
  | None | Some "" -> Ok None
  | Some s -> (
      match engine_of_string s with
      | Some e -> Ok (Some e)
      | None ->
          Error ("WD_ENGINE: unknown engine " ^ s ^ " (compiled|treewalk)"))

let load () =
  let* jobs = parse_jobs (Sys.getenv_opt "WD_JOBS") in
  let* engine = parse_engine (Sys.getenv_opt "WD_ENGINE") in
  Ok { jobs; engine }

(* Memoised snapshot: the environment is immutable for the process's
   purposes, and consumers sit on hot-ish paths (pool sizing at creation,
   engine default at first interpreter construction). *)
let cache = ref None

let get () =
  match !cache with
  | Some c -> c
  | None -> (
      match load () with
      | Ok c ->
          cache := Some c;
          c
      | Error msg -> failwith msg)
