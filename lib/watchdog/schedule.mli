(** The checker-scheduling surface that the host-cost benchmark
    ([hostbench/]) reads, kept as a fixed contract.

    Every checker runs in its own {!Driver} loop, sleeping its declared
    period; there is no scheduling policy to choose. The benchmark still
    installs a load probe and reports two counters, so this stub keeps
    their signatures: the probe is never called and both counters are
    always 0. *)

type t

val create : unit -> t

val set_load_probe : t -> (unit -> int) -> unit
(** Accepted and ignored: no scheduling decision reads load. *)

type stats = {
  st_dedup_skips : int;  (** always 0: no run is ever skipped *)
  st_shared_syncs : int;  (** always 0: checkers never share a batch *)
}

val stats : t -> stats
