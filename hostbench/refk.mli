(** The reference kernel and the normaliser built on it.

    Every host timing the benchmark reports is divided by the time of this
    fixed kernel, run next to the measured slice, then scaled by the
    kernel's nominal time. A uniform slowdown of the host cancels. *)

type t

val create : unit -> t
(** Allocate the kernel's 8 MiB array (off-heap) and 64K-key table. *)

val nominal_ns : float
(** About the kernel's median time on the reference host; only a scale. *)

val run : t -> float
(** Run the kernel once; host ns it took. Constant work on every call. *)

val normalise : raw_ns:float -> kernel_ns:float -> float
(** [raw_ns *. nominal_ns /. kernel_ns]. *)

val smooth : float array -> float array
(** [smooth ks] replaces each kernel time by the median of the kernel
    times at most 4 positions away (lower median on an even count). *)

