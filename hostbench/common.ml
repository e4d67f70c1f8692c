(* Measurement plumbing shared by the load and sweep workloads: the host
   clock, per-domain allocation counters, timed samples normalised by the
   reference kernel run beside them, and the output checks. *)

module Sched = Wd_sim.Sched
module Stats = Hostbench_core.Stats
module Refk = Hostbench_core.Refk

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Minor-heap bytes allocated by this domain so far. [Gc.minor_words] is
   exact in native code on OCaml 5.1, where [Gc.counters] and
   [Gc.quick_stat] only catch up at minor collections (a window read
   through them drifts by whole minor heaps). Blocks allocated straight
   into the major heap are left out for the same reason; they are a few
   tens of bytes per request here. *)
let alloc_bytes_raw () = Gc.minor_words () *. float_of_int (Sys.word_size / 8)

(* Reading the counter may itself allocate a constant (a boxed float when
   the call is not inlined) that lands inside the window; measured once
   and subtracted. *)
let read_cost =
  let a = alloc_bytes_raw () in
  let b = alloc_bytes_raw () in
  b -. a

(* Hit rate of a (hits, misses) cache counter between two readings. *)
let rate_since (h0, m0) (h1, m1) =
  let h = h1 - h0 and m = m1 - m0 in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* One host-timed sample: raw ns, the kernel run right after it, and the
   ops it covered. [norm] is the raw time in reference-kernel units. *)
type sample = { raw_ns : float; kernel_ns : float; ops : int }

let norm s = Refk.normalise ~raw_ns:s.raw_ns ~kernel_ns:s.kernel_ns

let timed kernel f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let k = Refk.run kernel in
  (r, t1 -. t0, k)

(* Cold timings: [f] 15 times, each followed by a kernel run; the median
   raw time over the median kernel time, normalised, printed beside both.
   Returns normalised ns. *)
let cold ~kernel label f =
  let runs = List.init 15 (fun _ -> timed kernel f) in
  let raw = Stats.median (List.map (fun ((), r, _) -> r) runs) in
  let k = Stats.median (List.map (fun ((), _, k) -> k) runs) in
  let n = Refk.normalise ~raw_ns:raw ~kernel_ns:k in
  Printf.printf
    "cold %-24s %.4f ms normalised = raw %.4f ms beside a %.4f ms kernel\n%!"
    label (n /. 1e6) (raw /. 1e6) (k /. 1e6);
  n

let run_until sched until =
  match Sched.run ~until sched with
  | Sched.Time_limit | Sched.Quiescent -> ()
  | Sched.Deadlock _ -> failwith "simulation deadlocked"

(* --- checks --- *)

let failures = ref []

let check name ok detail =
  Printf.printf "check %-44s %s%s\n%!" name
    (if ok then "ok" else "FAILED")
    (if detail = "" then "" else "  (" ^ detail ^ ")");
  if not ok then failures := name :: !failures

let all_checks_passed () = !failures = []

(* Human-readable metric line: name, value, unit, and what it came from. *)
let show ?(note = "") name unit_ v =
  Printf.printf "metric %-34s %14.4f %-6s%s\n%!" name v unit_
    (if note = "" then "" else "  " ^ note)

(* Samples in run order, each normalised by its neighbourhood's kernel
   median rather than its own kernel run. *)
let smooth samples =
  let ks = Refk.smooth (Array.of_list (List.map (fun s -> s.kernel_ns) samples)) in
  List.mapi (fun i s -> { s with kernel_ns = ks.(i) }) samples

(* --- host summaries --- *)

type host = {
  h_med_us : float;  (** normalised µs per op, median over samples *)
  h_p90_us : float;
  h_raw_med_us : float;  (** the same median, before normalising *)
  h_kernel_med_ms : float;  (** the kernel runs beside the samples *)
  h_ops : int;
  h_norm_s : float;  (** normalised host seconds over all samples *)
  h_samples : int;  (** samples with at least one op *)
}

let host_of samples =
  let busy = List.filter (fun s -> s.ops > 0) samples in
  if busy = [] then invalid_arg "Common.host_of: no samples";
  let per_op f = List.map (fun s -> f s /. float_of_int s.ops /. 1e3) busy in
  let norm_us = per_op norm and raw_us = per_op (fun s -> s.raw_ns) in
  {
    h_med_us = Stats.median norm_us;
    h_p90_us = Stats.percentile norm_us 0.90;
    h_raw_med_us = Stats.median raw_us;
    h_kernel_med_ms = Stats.median (List.map (fun s -> s.kernel_ns /. 1e6) samples);
    h_ops = List.fold_left (fun n s -> n + s.ops) 0 samples;
    h_norm_s = Stats.sum (List.map norm samples) /. 1e9;
    h_samples = List.length busy;
  }

let show_host label h =
  Printf.printf
    "host %-20s %.3f us/op normalised (p90 %.3f) = raw %.3f us/op beside a \
     %.4f ms kernel (nominal %.4f ms); %d samples, %d ops\n%!"
    label h.h_med_us h.h_p90_us h.h_raw_med_us h.h_kernel_med_ms
    (Refk.nominal_ns /. 1e6) h.h_samples h.h_ops
