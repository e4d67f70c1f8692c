(* A fixed contract for the host-cost benchmark: see schedule.mli. *)

type t = unit

let create () = ()
let set_load_probe () (_ : unit -> int) = ()

type stats = { st_dedup_skips : int; st_shared_syncs : int }

let stats () = { st_dedup_skips = 0; st_shared_syncs = 0 }
