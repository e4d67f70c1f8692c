(* The reference kernel: a fixed piece of work timed next to every
   measured slice. On a shared host the benchmark's speed moves with
   contention from neighbours for caches, memory bandwidth and the SMT
   sibling, so a slice's raw time is divided by the time of the kernel
   runs beside it and scaled back by the kernel's nominal time. It uses no
   repo code.

   The kernel must slow down exactly when the simulator does, so it is
   made of the memory-touching work the simulator itself does:
   effect-handler fiber switches (stack switching, the scheduler's
   context switch), short-lived minor allocation, and [Hashtbl] updates
   over a 64K-key table whose values get promoted, with random reads and
   writes over an 8 MiB array on the side. The proportions were fitted
   on the reference host. Eight runs of one seed per workload, spread
   over the host's fast and slow phases, were normalised by each part
   alone and by mixes of them. Raw host time varied 13-16% (coefficient
   of variation); normalised by this mix, 3.6-5.1%. A register-only part
   tracked no better than raw time (10-15%) and is left out. *)

let keys = 1 lsl 16
let cells = 1 lsl 20 (* 8 MiB of ints, off the OCaml heap *)

(* About the median kernel time on the reference host (2-vCPU shared x86-64 VM,
   OCaml 5.1.1). Only a scale: normalised figures read in host units
   there, and a uniform slowdown of host and kernel cancels. *)
let nominal_ns = 700_000.

type t = {
  arr : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  tbl : (int, int * int) Hashtbl.t;
  mutable sink : int;
}

let create () =
  let arr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
  Bigarray.Array1.fill arr 0;
  let tbl = Hashtbl.create keys in
  for k = 0 to keys - 1 do
    Hashtbl.replace tbl k (k, 0)
  done;
  { arr; tbl; sink = 0 }

(* Every part does the same work on every call (fixed seeds and counts),
   so only the host's speed varies. *)

let table_and_array k =
  let x = ref 0x2545F491 and acc = ref 0 in
  for i = 1 to 300 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land (cells - 1) in
    let v = Bigarray.Array1.unsafe_get k.arr j in
    Bigarray.Array1.unsafe_set k.arr j (v + i);
    let key = (!x lsr 7) land (keys - 1) in
    (match Hashtbl.find_opt k.tbl key with
    | Some (a, _) -> acc := !acc + a
    | None -> ());
    Hashtbl.replace k.tbl key (key, v)
  done;
  k.sink <- k.sink + !acc

let minor_alloc k =
  let acc = ref 0 in
  for i = 1 to 5_000 do
    acc := !acc + List.length [ i; i + 1; i + 2 ]
  done;
  k.sink <- k.sink + !acc

type _ Effect.t += Tick : unit Effect.t

let fiber_switches k =
  let n = ref 0 in
  Effect.Deep.match_with
    (fun () ->
      for _ = 1 to 20_000 do
        Effect.perform Tick
      done)
    ()
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Tick ->
              Some
                (fun (c : (a, _) Effect.Deep.continuation) ->
                  incr n;
                  Effect.Deep.continue c ())
          | _ -> None);
    };
  k.sink <- k.sink + !n

let run k =
  let t0 = Monotonic_clock.now () in
  table_and_array k;
  minor_alloc k;
  fiber_switches k;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

let normalise ~raw_ns ~kernel_ns = raw_ns *. nominal_ns /. kernel_ns

(* A single kernel run is itself a noisy measurement. Host phases last far
   longer than one slice, so each slice is normalised by the median of the
   kernel runs within [half] slices of it instead of by its own run. *)
let half = 4

let smooth ks =
  let n = Array.length ks in
  Array.init n (fun i ->
      let lo = max 0 (i - half) and hi = min (n - 1) (i + half) in
      let w = Array.sub ks lo (hi - lo + 1) in
      Array.sort Float.compare w;
      w.((Array.length w - 1) / 2))
