(** Order statistics over float samples, by nearest rank. *)

val rank : int -> float -> int
(** [rank n q] is the 0-based index of the [q]-quantile among [n] sorted
    samples: [ceil (q n) - 1], clamped to [0, n-1]. *)

val percentile : float list -> float -> float
(** [percentile xs q] is the nearest-rank [q]-quantile of [xs] (one of the
    samples). Raises [Invalid_argument] on an empty list. *)

val median : float list -> float
val sum : float list -> float
