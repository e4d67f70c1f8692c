(* Unit and property tests for the simulation kernel. *)

open Wd_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- heap --- *)

let test_heap_order () =
  let h = Heap.create ~dummy_payload:(-1) in
  Heap.push h ~time:30L 3;
  Heap.push h ~time:10L 1;
  Heap.push h ~time:20L 2;
  check_int "min time" 10 (Heap.min_time h);
  let order = List.map snd (Heap.drain h) in
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] order;
  check_int "empty min time" max_int (Heap.min_time h)

let test_heap_ties_fifo () =
  let h = Heap.create ~dummy_payload:(-1) in
  List.iter (fun i -> Heap.push h ~time:5L i) [ 1; 2; 3; 4; 5 ];
  let order = List.map snd (Heap.drain h) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] order

let test_heap_grow () =
  let h = Heap.create ~dummy_payload:0 in
  for i = 1 to 1000 do
    Heap.push h ~time:(Int64.of_int (1000 - i)) i
  done;
  check_int "size" 1000 (Heap.size h);
  let times = List.map fst (Heap.drain h) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | [ _ ] | [] -> true
  in
  check "sorted" true (sorted times)

(* Model-based: interleave [push]/[take] against a list kept sorted by
   (saturated time, push order). Times come from a narrow range (many
   ties), a wide one, and above [max_int] (they must saturate and then pop
   in push order); runs of pushes grow the heap past its initial 16
   slots. QCheck_alcotest prints its random seed on start-up; set
   QCHECK_SEED to replay a run. *)
type heap_op = Push of int64 | Take

let heap_op_gen =
  let open QCheck.Gen in
  let above_max_int k = Int64.add (Int64.of_int max_int) (Int64.of_int k) in
  frequency
    [
      (6, map (fun t -> Push (Int64.of_int t)) (int_bound 8));
      (3, map (fun t -> Push (Int64.of_int t)) (int_bound 1_000_000));
      (1, map (fun k -> Push (Int64.sub Int64.max_int (Int64.of_int k)))
            (int_bound 3));
      (1, map (fun k -> Push (above_max_int k)) (int_range 1 3));
      (4, return Take);
    ]

let pp_heap_op = function Push t -> Printf.sprintf "push %Ld" t | Take -> "take"

let prop_heap_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_heap_op ops))
       QCheck.Gen.(list_size (int_range 0 120) heap_op_gen))
    (fun ops ->
      let key t =
        if t > Int64.of_int max_int then max_int else Int64.to_int t
      in
      let h = Heap.create ~dummy_payload:(-1) in
      (* model entries: (key, seq), seq doubling as the payload *)
      let insert e model =
        let rec go = function
          | x :: rest when compare x e < 0 -> x :: go rest
          | rest -> e :: rest
        in
        go model
      in
      let step (model, seq) op =
        match op with
        | Push t ->
            Heap.push h ~time:t seq;
            (insert (key t, seq) model, seq + 1)
        | Take -> (
            match model with
            | [] ->
                if not (Heap.is_empty h && Heap.min_time h = max_int) then
                  QCheck.Test.fail_report "empty model, non-empty heap";
                (model, seq)
            | (k, p) :: rest ->
                if Heap.min_time h <> k then
                  QCheck.Test.fail_reportf "min_time %d, model %d"
                    (Heap.min_time h) k;
                if Heap.take h <> p then
                  QCheck.Test.fail_report "wrong payload";
                (rest, seq))
      in
      let model, _ = List.fold_left step ([], 0) ops in
      Heap.size h = List.length model && Heap.drain h = model)

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let first_c = Rng.next_int64 c in
  let a2 = Rng.create ~seed:7 in
  let c2 = Rng.split a2 in
  ignore (Rng.next_int64 a2);
  Alcotest.(check int64) "child unaffected by parent advance" first_c
    (Rng.next_int64 c2)

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    check "in range" true (x >= 0 && x < 10)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check "float range" true (f >= 0.0 && f < 1.0)
  done

let prop_rng_exponential_positive =
  QCheck.Test.make ~name:"exponential durations are nonnegative" ~count:100
    QCheck.(pair small_int (float_bound_exclusive 1000.0))
    (fun (seed, mean) ->
      let r = Rng.create ~seed in
      Rng.exponential r ~mean:(mean +. 0.001) >= 0.0)

(* --- time --- *)

let test_time_units () =
  Alcotest.(check int64) "ms" 5_000_000L (Time.ms 5);
  Alcotest.(check int64) "sec" 2_000_000_000L (Time.sec 2);
  Alcotest.(check int64) "us" 3_000L (Time.us 3);
  check_str "pp seconds" "2.000s" (Time.to_string (Time.sec 2));
  check_str "pp millis" "5.000ms" (Time.to_string (Time.ms 5))

(* --- scheduler --- *)

let test_sched_runs_tasks_in_time_order () =
  let s = Sched.create () in
  let log = ref [] in
  let t name delay =
    ignore
      (Sched.spawn ~name s (fun () ->
           Sched.sleep delay;
           log := name :: !log))
  in
  t "c" (Time.ms 30);
  t "a" (Time.ms 10);
  t "b" (Time.ms 20);
  (match Sched.run s with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescent");
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sched_virtual_time () =
  let s = Sched.create () in
  ignore (Sched.spawn s (fun () -> Sched.sleep (Time.sec 3600)));
  ignore (Sched.run s);
  Alcotest.(check int64) "one simulated hour" (Time.sec 3600) (Sched.now s)

let test_sched_yield_interleaves () =
  let s = Sched.create () in
  let log = ref [] in
  let t name =
    ignore
      (Sched.spawn ~name s (fun () ->
           for i = 1 to 2 do
             log := Fmt.str "%s%d" name i :: !log;
             Sched.yield ()
           done))
  in
  t "a";
  t "b";
  ignore (Sched.run s);
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2"; "b2" ]
    (List.rev !log)

let test_sched_join () =
  let s = Sched.create () in
  let child_done = ref false in
  ignore
    (Sched.spawn s (fun () ->
         let child =
           Sched.spawn ~name:"child" s (fun () ->
               Sched.sleep (Time.ms 10);
               child_done := true)
         in
         match Sched.join child with
         | Sched.Exited -> Alcotest.(check bool) "done first" true !child_done
         | _ -> Alcotest.fail "child should exit"));
  ignore (Sched.run s)

let test_sched_kill () =
  let s = Sched.create () in
  let reached = ref false in
  let victim =
    Sched.spawn ~name:"victim" s (fun () ->
        Sched.sleep (Time.sec 100);
        reached := true)
  in
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         Sched.kill s victim));
  ignore (Sched.run s);
  check "never resumed" false !reached;
  check "killed status" true (Sched.task_status victim = Some Sched.Killed)

(* A task that kills itself unwinds with [Cancelled] and ends [Killed]. *)
let test_sched_kill_self () =
  let s = Sched.create () in
  let reached = ref false in
  let t =
    Sched.spawn s (fun () ->
        Sched.kill s (Sched.self s);
        reached := true)
  in
  ignore (Sched.run s);
  check "unwound" false !reached;
  check "killed status" true (Sched.task_status t = Some Sched.Killed)

let test_sched_failure_status () =
  let s = Sched.create () in
  let t = Sched.spawn ~name:"fails" s (fun () -> failwith "boom") in
  ignore (Sched.run s);
  match Sched.task_status t with
  | Some (Sched.Failed (Failure m)) -> check_str "msg" "boom" m
  | _ -> Alcotest.fail "expected failure status"

let test_sched_timeout_join_completes () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s (fun () ->
         match Sched.timeout_join s ~timeout:(Time.sec 1) (fun () -> 41 + 1) with
         | Ok v -> check_int "value" 42 v
         | Error _ -> Alcotest.fail "should complete"));
  ignore (Sched.run s)

let test_sched_timeout_join_times_out () =
  let s = Sched.create () in
  let returned_at = ref (-1L) in
  ignore
    (Sched.spawn s (fun () ->
         match
           Sched.timeout_join s ~timeout:(Time.ms 10) (fun () ->
               Sched.sleep (Time.sec 5))
         with
         | Error `Timeout -> returned_at := Sched.now s
         | _ -> Alcotest.fail "should time out"));
  (match Sched.run s with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "child must be killed, leaving the sim quiescent");
  (* the killed child's stale sleep timer may advance the final clock, but
     the caller observed the timeout exactly at the deadline *)
  Alcotest.(check int64) "timed out at the deadline" (Time.ms 10) !returned_at

(* --- persistent runner: a reusable timeout_join --- *)

let test_runner_ok_timeout_exn () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s (fun () ->
         let r = Sched.runner ~name:"rt" s in
         (match Sched.runner_run r ~timeout:(Time.sec 1) (fun () -> 40 + 2) with
         | Ok v -> check_int "ok value" 42 v
         | Error _ -> Alcotest.fail "should complete");
         (match
            Sched.runner_run r ~timeout:(Time.ms 10) (fun () ->
                Sched.sleep (Time.sec 5))
          with
         | Error `Timeout -> ()
         | _ -> Alcotest.fail "should time out");
         (* the worker was killed by the timeout; the runner respawns it *)
         (match
            Sched.runner_run r ~timeout:(Time.sec 1) (fun () ->
                failwith "boom")
          with
         | Error (`Exn (Failure m)) -> check_str "exn payload" "boom" m
         | _ -> Alcotest.fail "should surface the exception");
         (match Sched.runner_run r ~timeout:(Time.sec 1) (fun () -> 7) with
         | Ok v -> check_int "usable after exn" 7 v
         | Error _ -> Alcotest.fail "runner must stay usable");
         Sched.runner_stop r;
         match Sched.runner_run r ~timeout:(Time.sec 1) (fun () -> 9) with
         | Ok v -> check_int "usable after stop" 9 v
         | Error _ -> Alcotest.fail "runner must respawn after stop"));
  match Sched.run s with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "daemon worker must not keep the sim alive"

(* The refactor's scheduling-equivalence claim, tested directly: a periodic
   caller issuing a mix of completing / timing-out / raising bodies must
   observe the same outcomes at the same virtual times, with the same
   context-switch and event counts, whether each call spawns a fresh child
   (timeout_join) or reuses the persistent worker (runner). *)
let runner_equiv_workload use_runner =
  let s = Sched.create ~seed:7 () in
  let outcomes = ref [] in
  ignore
    (Sched.spawn ~name:"drv" s (fun () ->
         let call =
           if use_runner then
             let r = Sched.runner ~name:"wk" s in
             fun f -> Sched.runner_run r ~timeout:(Time.ms 10) f
           else fun f -> Sched.timeout_join ~name:"wk" s ~timeout:(Time.ms 10) f
         in
         for i = 1 to 30 do
           let body () =
             if i mod 7 = 0 then failwith "x";
             Sched.sleep (Time.ms (if i mod 3 = 0 then 50 else 1));
             i
           in
           let tag =
             match call body with
             | Ok v -> Printf.sprintf "ok:%d" v
             | Error `Timeout -> "timeout"
             | Error (`Exn _) -> "exn"
             | Error `Killed -> "killed"
           in
           outcomes := (tag, Sched.now s) :: !outcomes;
           Sched.sleep (Time.ms 5)
         done));
  ignore (Sched.run s);
  let _, switches, events = Sched.stats s in
  (List.rev !outcomes, Sched.now s, switches, events)

let test_runner_matches_timeout_join () =
  let o1, now1, sw1, ev1 = runner_equiv_workload false in
  let o2, now2, sw2, ev2 = runner_equiv_workload true in
  Alcotest.(check (list (pair string int64))) "same outcomes, same times" o1 o2;
  Alcotest.(check int64) "same final clock" now1 now2;
  check_int "same context switches" sw1 sw2;
  check_int "same events fired" ev1 ev2

(* --- Site intern table --- *)

let prop_site_intern_functional =
  QCheck.Test.make
    ~name:"site: equal strings get equal ids, distinct strings distinct ids"
    ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let ia = Wd_sim.Site.intern a and ib = Wd_sim.Site.intern b in
      String.equal a b = (ia = ib))

let prop_site_roundtrip =
  QCheck.Test.make ~name:"site: str is a left inverse of intern" ~count:200
    QCheck.(small_list string)
    (fun ss ->
      List.for_all
        (fun x ->
          let id = Wd_sim.Site.intern x in
          id = Wd_sim.Site.intern x
          && String.equal (Wd_sim.Site.str id) x)
        ss)

let test_site_concurrent_interning () =
  let strs = List.init 200 (fun i -> "site/conc/" ^ string_of_int i) in
  let doms =
    List.init 3 (fun _ ->
        Domain.spawn (fun () -> List.map Wd_sim.Site.intern strs))
  in
  let per_domain = List.map Domain.join doms in
  (match per_domain with
  | first :: rest ->
      List.iter
        (fun ids ->
          Alcotest.(check (list int)) "all domains agree on ids" first ids)
        rest;
      List.iter2
        (fun s id -> check_str "round-trip" s (Wd_sim.Site.str id))
        strs first
  | [] -> Alcotest.fail "no domains");
  check "count is monotone and covers these"
    (Wd_sim.Site.count () >= List.length strs)
    true

let test_sched_deadlock_detection () =
  let s = Sched.create () in
  let c = Cond.create "never" in
  ignore (Sched.spawn ~name:"waiter" s (fun () -> Cond.wait c));
  match Sched.run s with
  | Sched.Deadlock [ t ] -> check_str "who" "waiter" (Sched.task_name t)
  | _ -> Alcotest.fail "expected deadlock"

let test_sched_daemon_does_not_block_exit () =
  let s = Sched.create () in
  ignore
    (Sched.spawn ~name:"daemon" ~daemon:true s (fun () ->
         while true do
           Sched.sleep (Time.sec 1)
         done));
  ignore (Sched.spawn s (fun () -> Sched.sleep (Time.ms 5)));
  match Sched.run ~until:(Time.sec 10) s with
  | Sched.Time_limit | Sched.Quiescent -> ()
  | Sched.Deadlock _ -> Alcotest.fail "daemons must not deadlock the sim"

let test_sched_run_until_resumable () =
  let s = Sched.create () in
  let hits = ref 0 in
  ignore
    (Sched.spawn ~daemon:true s (fun () ->
         while true do
           Sched.sleep (Time.sec 1);
           incr hits
         done));
  ignore (Sched.run ~until:(Time.sec 5) s);
  let five = !hits in
  ignore (Sched.run ~until:(Time.sec 10) s);
  check_int "first window" 5 five;
  check_int "second window" 10 !hits

let prop_sched_deterministic =
  QCheck.Test.make ~name:"same seed, same trace" ~count:20
    QCheck.(small_list (int_bound 50))
    (fun delays ->
      let trace seed =
        let s = Sched.create ~seed () in
        let log = ref [] in
        List.iteri
          (fun i d ->
            ignore
              (Sched.spawn ~name:(string_of_int i) s (fun () ->
                   Sched.sleep (Time.ms d);
                   log := (i, Sched.now s) :: !log)))
          delays;
        ignore (Sched.run s);
        !log
      in
      trace 5 = trace 5)

let test_sched_stats () =
  let s = Sched.create () in
  for _ = 1 to 5 do
    ignore (Sched.spawn s (fun () -> Sched.sleep (Time.ms 1)))
  done;
  ignore (Sched.run s);
  let spawned, switches, events = Sched.stats s in
  check_int "spawned" 5 spawned;
  check "switched at least once per task" true (switches >= 5);
  check "events fired" true (events >= 10)

let test_sched_kill_ready_task () =
  let s = Sched.create () in
  let ran = ref false in
  let victim = Sched.spawn ~name:"v" s (fun () -> ran := true) in
  (* killed before it ever runs: the queued start job must not execute *)
  Sched.kill s victim;
  ignore (Sched.run s);
  check "never ran" false !ran;
  check "killed" true (Sched.task_status victim = Some Sched.Killed)

let test_sched_self_identity () =
  let s = Sched.create () in
  ignore
    (Sched.spawn ~name:"me" s (fun () ->
         check_str "self name" "me" (Sched.task_name (Sched.self s))));
  ignore (Sched.run s)

let test_time_arithmetic () =
  Alcotest.(check int64) "add" (Time.ms 3) Time.(ms 1 + ms 2);
  Alcotest.(check int64) "sub" (Time.ms 1) Time.(ms 3 - ms 2);
  check "never dominates" true (Time.never > Time.sec 1_000_000);
  Alcotest.(check int64) "of_float roundtrip" (Time.sec 2)
    (Time.of_float_sec (Time.to_float_sec (Time.sec 2)))

let test_rng_choice_and_shuffle () =
  let r = Rng.create ~seed:9 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    check "choice member" true (Array.exists (( = ) (Rng.choice r arr)) arr)
  done;
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  Array.sort compare a;
  check "shuffle is a permutation" true (a = Array.init 20 Fun.id);
  for _ = 1 to 100 do
    let x = Rng.int64_range r 5L 9L in
    check "range inclusive" true (x >= 5L && x <= 9L)
  done

(* --- cond --- *)

let test_cond_signal_wakes_one () =
  let s = Sched.create () in
  let c = Cond.create "c" in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn ~daemon:true s (fun () ->
           Cond.wait c;
           incr woken))
  done;
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         Cond.signal c));
  ignore (Sched.run ~until:(Time.ms 100) s);
  check_int "one woken" 1 !woken

let test_cond_broadcast_wakes_all () =
  let s = Sched.create () in
  let c = Cond.create "c" in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn ~daemon:true s (fun () ->
           Cond.wait c;
           incr woken))
  done;
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         Cond.broadcast c));
  ignore (Sched.run ~until:(Time.ms 100) s);
  check_int "all woken" 3 !woken

let test_cond_await_timeout () =
  let s = Sched.create () in
  let c = Cond.create "c" in
  let result = ref None in
  ignore
    (Sched.spawn s (fun () ->
         result :=
           Some (Cond.await_timeout c (fun () -> false) ~timeout:(Time.ms 20))));
  ignore (Sched.run s);
  check "timed out" true (!result = Some false);
  Alcotest.(check int64) "waited the timeout" (Time.ms 20) (Sched.now s)

(* --- mutex --- *)

let test_mutex_mutual_exclusion () =
  let s = Sched.create () in
  let m = Smutex.create "m" in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sched.spawn s (fun () ->
           Smutex.with_lock m (fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               Sched.sleep (Time.ms 5);
               decr inside)))
  done;
  ignore (Sched.run s);
  check_int "never concurrent" 1 !max_inside;
  check_int "all acquired" 4 (Smutex.acquisitions m)

let test_mutex_released_on_exception () =
  let s = Sched.create () in
  let m = Smutex.create "m" in
  ignore
    (Sched.spawn s (fun () ->
         (try Smutex.with_lock m (fun () -> failwith "inner")
          with Failure _ -> ());
         check "released" false (Smutex.locked m)));
  ignore (Sched.run s)

let test_mutex_try_lock () =
  let s = Sched.create () in
  let m = Smutex.create "m" in
  ignore
    (Sched.spawn s (fun () ->
         check "first try" true (Smutex.try_lock m);
         check "second try fails" false (Smutex.try_lock m);
         Smutex.unlock m));
  ignore (Sched.run s)

let test_mutex_deadlock_cycle () =
  let s = Sched.create () in
  let a = Smutex.create "a" and b = Smutex.create "b" in
  ignore
    (Sched.spawn ~name:"t1" s (fun () ->
         Smutex.lock a;
         Sched.sleep (Time.ms 5);
         Smutex.lock b));
  ignore
    (Sched.spawn ~name:"t2" s (fun () ->
         Smutex.lock b;
         Sched.sleep (Time.ms 5);
         Smutex.lock a));
  match Sched.run s with
  | Sched.Deadlock tasks -> check_int "both stuck" 2 (List.length tasks)
  | _ -> Alcotest.fail "expected a lock cycle deadlock"

(* --- channel --- *)

let test_channel_fifo () =
  let s = Sched.create () in
  let ch = Channel.create "ch" in
  let got = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         for i = 1 to 5 do
           Channel.send ch i
         done));
  ignore
    (Sched.spawn s (fun () ->
         for _ = 1 to 5 do
           got := Channel.recv ch :: !got
         done));
  ignore (Sched.run s);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_channel_capacity_blocks_sender () =
  let s = Sched.create () in
  let ch = Channel.create ~capacity:2 "ch" in
  let sent = ref 0 in
  ignore
    (Sched.spawn ~daemon:true s (fun () ->
         for i = 1 to 5 do
           Channel.send ch i;
           sent := i
         done));
  ignore (Sched.run ~until:(Time.ms 10) s);
  check_int "sender blocked at capacity" 2 !sent;
  ignore
    (Sched.spawn ~daemon:true s (fun () ->
         for _ = 1 to 5 do
           ignore (Channel.recv ch)
         done));
  ignore (Sched.run ~until:(Time.ms 20) s);
  check_int "drained" 5 !sent

let test_channel_recv_timeout () =
  let s = Sched.create () in
  let ch : int Channel.t = Channel.create "ch" in
  let got = ref (Some 0) in
  ignore
    (Sched.spawn s (fun () ->
         got := Channel.recv_timeout ch ~timeout:(Time.ms 15)));
  ignore (Sched.run s);
  check "timed out empty" true (!got = None)

let test_channel_try_ops_and_stats () =
  let s = Sched.create () in
  let ch = Channel.create ~capacity:1 "ch" in
  ignore
    (Sched.spawn s (fun () ->
         check "try_send ok" true (Channel.try_send ch 1);
         check "try_send full" false (Channel.try_send ch 2);
         check_int "length" 1 (Channel.length ch);
         check "try_recv" true (Channel.try_recv ch = Some 1);
         check "try_recv empty" true (Channel.try_recv ch = None);
         let sent, received = Channel.stats ch in
         check_int "sent" 1 sent;
         check_int "received" 1 received));
  ignore (Sched.run s)

let test_cond_waiter_count () =
  let s = Sched.create () in
  let c = Cond.create "c" in
  for _ = 1 to 3 do
    ignore (Sched.spawn ~daemon:true s (fun () -> Cond.wait c))
  done;
  ignore (Sched.run ~until:(Time.ms 5) s);
  check_int "three waiting" 3 (Cond.waiter_count c)

let test_channel_close () =
  let s = Sched.create () in
  let ch : int Channel.t = Channel.create "ch" in
  let outcome = ref "" in
  ignore
    (Sched.spawn s (fun () ->
         match Channel.recv ch with
         | _ -> outcome := "value"
         | exception Channel.Closed _ -> outcome := "closed"));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep (Time.ms 1);
         Channel.close ch));
  ignore (Sched.run s);
  check_str "closed" "closed" !outcome

(* --- trace --- *)

let test_trace_records_lifecycle () =
  let s = Sched.create () in
  let tr = Trace.create ~capacity:64 () in
  Sched.set_trace s tr;
  ignore
    (Sched.spawn ~name:"traced" s (fun () ->
         Sched.sleep (Time.ms 5);
         Sched.sleep (Time.ms 5)));
  ignore (Sched.run s);
  let events = Trace.recent tr 100 in
  let kinds =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.task_name = "traced" then Some e.Trace.kind else None)
      events
  in
  (match kinds with
  | Trace.Spawned
    :: Trace.Blocked _ :: Trace.Resumed
    :: Trace.Blocked _ :: Trace.Resumed
    :: [ Trace.Finished "exited" ] ->
      ()
  | _ -> Alcotest.failf "unexpected lifecycle (%d events)" (List.length kinds));
  check "chronological" true
    (let rec mono = function
       | (a : Trace.event) :: (b :: _ as rest) ->
           a.Trace.at <= b.Trace.at && mono rest
       | [ _ ] | [] -> true
     in
     mono events)

let test_trace_ring_bounds () =
  let s = Sched.create () in
  let tr = Trace.create ~capacity:8 () in
  Sched.set_trace s tr;
  for i = 1 to 20 do
    ignore (Sched.spawn ~name:(Fmt.str "t%d" i) s (fun () -> ()))
  done;
  ignore (Sched.run s);
  check "total counts everything" true (Trace.total tr >= 40);
  check_int "recent bounded by capacity" 8 (List.length (Trace.recent tr 100));
  (* the survivors are the newest events *)
  match List.rev (Trace.recent tr 100) with
  | (e : Trace.event) :: _ -> check_str "newest last spawn" "t20" e.Trace.task_name
  | [] -> Alcotest.fail "empty"

let () =
  Alcotest.run "wd_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "time order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_ties_fifo;
          Alcotest.test_case "growth" `Quick test_heap_grow;
          QCheck_alcotest.to_alcotest prop_heap_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "choice/shuffle/range" `Quick test_rng_choice_and_shuffle;
          QCheck_alcotest.to_alcotest prop_rng_exponential_positive;
        ] );
      ( "time",
        [
          Alcotest.test_case "units and pp" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
        ] );
      ( "sched",
        [
          Alcotest.test_case "time order" `Quick test_sched_runs_tasks_in_time_order;
          Alcotest.test_case "virtual time" `Quick test_sched_virtual_time;
          Alcotest.test_case "yield interleaves" `Quick test_sched_yield_interleaves;
          Alcotest.test_case "join" `Quick test_sched_join;
          Alcotest.test_case "kill" `Quick test_sched_kill;
          Alcotest.test_case "kill self" `Quick test_sched_kill_self;
          Alcotest.test_case "failure status" `Quick test_sched_failure_status;
          Alcotest.test_case "timeout_join ok" `Quick test_sched_timeout_join_completes;
          Alcotest.test_case "timeout_join timeout" `Quick
            test_sched_timeout_join_times_out;
          Alcotest.test_case "deadlock detection" `Quick test_sched_deadlock_detection;
          Alcotest.test_case "daemon exit" `Quick test_sched_daemon_does_not_block_exit;
          Alcotest.test_case "resumable run" `Quick test_sched_run_until_resumable;
          Alcotest.test_case "stats" `Quick test_sched_stats;
          Alcotest.test_case "kill ready task" `Quick test_sched_kill_ready_task;
          Alcotest.test_case "self identity" `Quick test_sched_self_identity;
          Alcotest.test_case "runner ok/timeout/exn/reuse" `Quick
            test_runner_ok_timeout_exn;
          Alcotest.test_case "runner matches timeout_join" `Quick
            test_runner_matches_timeout_join;
          QCheck_alcotest.to_alcotest prop_sched_deterministic;
        ] );
      ( "site",
        [
          Alcotest.test_case "concurrent interning" `Quick
            test_site_concurrent_interning;
          QCheck_alcotest.to_alcotest prop_site_intern_functional;
          QCheck_alcotest.to_alcotest prop_site_roundtrip;
        ] );
      ( "cond",
        [
          Alcotest.test_case "signal one" `Quick test_cond_signal_wakes_one;
          Alcotest.test_case "broadcast all" `Quick test_cond_broadcast_wakes_all;
          Alcotest.test_case "await timeout" `Quick test_cond_await_timeout;
          Alcotest.test_case "waiter count" `Quick test_cond_waiter_count;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "release on exception" `Quick
            test_mutex_released_on_exception;
          Alcotest.test_case "try_lock" `Quick test_mutex_try_lock;
          Alcotest.test_case "deadlock cycle" `Quick test_mutex_deadlock_cycle;
        ] );
      ( "trace",
        [
          Alcotest.test_case "lifecycle" `Quick test_trace_records_lifecycle;
          Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fifo" `Quick test_channel_fifo;
          Alcotest.test_case "capacity blocks" `Quick
            test_channel_capacity_blocks_sender;
          Alcotest.test_case "recv timeout" `Quick test_channel_recv_timeout;
          Alcotest.test_case "try ops and stats" `Quick test_channel_try_ops_and_stats;
          Alcotest.test_case "close" `Quick test_channel_close;
        ] );
    ]
