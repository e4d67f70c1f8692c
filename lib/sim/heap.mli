(** Deterministic 4-ary min-heap keyed by [(time, insertion sequence)].

    Entries with equal times pop in insertion order, which keeps
    discrete-event runs reproducible. Keys are stored unboxed as native
    ints in flat arrays, payloads stay put while their keys are sifted,
    and neither {!push} nor {!take} allocates (except when {!push}
    doubles the arrays).

    Times are non-negative [int64] nanoseconds at the interface and
    native [int]s inside. A time above [max_int] (about 146 virtual
    years) saturates to [max_int], and saturated entries then pop in
    insertion order. The scheduler never arms such a timer: the
    environment skips the timer for {!Time.never} deadlines. *)

type 'a t

val create : dummy_payload:'a -> 'a t
(** [create ~dummy_payload] makes an empty heap. Its arrays are allocated
    by the first {!push}, with room for 16 entries. The dummy payload
    fills unused array slots and is never returned. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int64 -> 'a -> unit
(** [push h ~time p] inserts [p] under [time] (saturated to an [int]). *)

val min_time : 'a t -> int
(** The earliest key, as a saturated native int; [max_int] when empty. *)

val take : 'a t -> 'a
(** Remove and return the earliest entry's payload; read its key with
    {!min_time} first. Raises [Invalid_argument] on an empty heap. *)

val drain : 'a t -> (int * 'a) list
(** Take everything, in key order, with each entry's key. For tests. *)
