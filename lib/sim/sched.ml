(* Deterministic discrete-event scheduler built on OCaml 5 effect handlers.

   Tasks are cooperative fibers. A fiber gives up control by performing
   [Suspend], which hands the scheduler a [register] function; [register]
   receives a waker that, when invoked, re-queues the fiber. Wakers are
   guarded by a per-task generation counter so a stale waker (e.g. a timer
   that fires after the condition it was racing already woke the task) is a
   no-op. This one mechanism implements sleeps, condition waits, joins,
   mutexes, channels and timeouts.

   All state lives in a single domain; combined with the tie-broken event
   heap and FIFO run queue, a run is a deterministic function of the seed.

   Timers sit in an unboxed {!Heap} and the run queue is a ring of thunks.
   A task's [step] closure is built at spawn and its suspend callback when
   it starts, and [current] holds a task, not an option. Firing a timer or
   running a thunk allocates nothing in the kernel; a suspend still
   allocates its waker, which captures the generation, and the [Some]
   around the parked continuation. *)

exception Cancelled
(* Raised inside a fiber that another task killed. *)

type exit_status = Exited | Failed of exn | Killed

type state = Ready | Running | Blocked | Finished

type task = {
  id : int;
  name : string;
  mutable state : state;
  mutable status : exit_status option;
  mutable blocked_on : string;
  mutable blocked_since : int64;
  mutable gen : int;
  mutable kont : (unit, unit) Effect.Deep.continuation option;
  (* The task's function, until it starts. *)
  mutable body : unit -> unit;
  (* Starts the task, and then continues [kont] on every wake: built once
     at spawn, pushed by spawn and by every wake. *)
  mutable step : unit -> unit;
  mutable exit_hooks : (exit_status -> unit) list;
  mutable cancel_requested : bool;
  daemon : bool;
  (* "join <name>", built on the first join so repeat joiners of a hot task
     do not re-format the suspend reason *)
  mutable join_reason : string;
}

type run_result = Quiescent | Time_limit | Deadlock of task list

type t = {
  mutable now : int64;
  timers : (unit -> unit) Heap.t;
  (* FIFO run queue: a ring of [rq_len] thunks starting at [rq_head], over
     an array whose length is a power of two. *)
  mutable rq : (unit -> unit) array;
  mutable rq_head : int;
  mutable rq_len : int;
  mutable current : task; (* [no_task] between tasks *)
  mutable next_id : int;
  mutable live : int; (* unfinished non-daemon tasks *)
  mutable tasks : task list;
  rng : Rng.t;
  mutable switches : int;
  mutable spawned : int;
  mutable events_fired : int;
  mutable trace : Trace.t option;
  (* [Suspend]'s [register], stashed by the effect handler for the
     suspend callback that runs right after it *)
  mutable register : (unit -> unit) -> unit;
}

type _ Effect.t +=
  | Suspend : { reason : string; register : (unit -> unit) -> unit } -> unit Effect.t

(* Domain-local, so independent simulations can run on separate domains
   (one self-contained world per domain) without observing each other. *)
let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get () =
  match Domain.DLS.get ambient with
  | Some s -> s
  | None -> failwith "Sched: no simulation is running"

let noop () = ()
let no_register (_ : unit -> unit) = ()

(* The current task between tasks. Never mutated, so it can be shared by
   every scheduler on every domain; its id and name are what trace events
   recorded outside a task carry. *)
let no_task =
  {
    id = 0;
    name = "<sched>";
    state = Finished;
    status = None;
    blocked_on = "";
    blocked_since = 0L;
    gen = 0;
    kont = None;
    body = noop;
    step = noop;
    exit_hooks = [];
    cancel_requested = false;
    daemon = true;
    join_reason = "";
  }

let create ?(seed = 42) () =
  {
    now = 0L;
    timers = Heap.create ~dummy_payload:noop;
    rq = Array.make 16 noop;
    rq_head = 0;
    rq_len = 0;
    current = no_task;
    next_id = 0;
    live = 0;
    tasks = [];
    rng = Rng.create ~seed;
    switches = 0;
    spawned = 0;
    events_fired = 0;
    trace = None;
    register = no_register;
  }

let now s = s.now
let rng s = s.rng

let self s =
  if s.current == no_task then failwith "Sched.self: called outside a task"
  else s.current

let task_name t = t.name
let task_id t = t.id
let task_state t = t.state
let task_status t = t.status
let task_blocked_on t = t.blocked_on
let task_blocked_since t = t.blocked_since
let all_tasks s = s.tasks

let stats s = (s.spawned, s.switches, s.events_fired)

let runq_push s f =
  let cap = Array.length s.rq in
  if s.rq_len = cap then begin
    let rq = Array.make (2 * cap) noop in
    for i = 0 to cap - 1 do
      rq.(i) <- s.rq.((s.rq_head + i) land (cap - 1))
    done;
    s.rq <- rq;
    s.rq_head <- 0
  end;
  s.rq.((s.rq_head + s.rq_len) land (Array.length s.rq - 1)) <- f;
  s.rq_len <- s.rq_len + 1

let runq_pop s =
  let f = s.rq.(s.rq_head) in
  s.rq.(s.rq_head) <- noop;
  s.rq_head <- (s.rq_head + 1) land (Array.length s.rq - 1);
  s.rq_len <- s.rq_len - 1;
  f

(* Load-pressure probes, sampled by the host-cost benchmark's traced runs.
   Both are pure reads of scheduler state at the instant of the call, so a
   sampling task sees a deterministic value: the runq contents and timer
   heap at any point of a run are a function of the seed alone. *)
let runq_depth s = s.rq_len

let timer_count s = Heap.size s.timers

let set_trace s trace = s.trace <- Some trace
let trace s = s.trace

(* Dedicated per-kind emitters: with tracing off (the common case) nothing
   is evaluated or allocated — the old [emit s t (Trace.Blocked reason)]
   shape built a variant block per suspend even with no trace attached. *)
let emit_spawned s t =
  match s.trace with
  | None -> ()
  | Some tr -> Trace.spawned tr ~at:s.now ~task_id:t.id ~task_name:t.name

let emit_resumed s t =
  match s.trace with
  | None -> ()
  | Some tr -> Trace.resumed tr ~at:s.now ~task_id:t.id ~task_name:t.name

let emit_blocked s t reason =
  match s.trace with
  | None -> ()
  | Some tr ->
      Trace.blocked tr ~at:s.now ~task_id:t.id ~task_name:t.name ~reason

let emit_finished s t how =
  match s.trace with
  | None -> ()
  | Some tr -> Trace.finished tr ~at:s.now ~task_id:t.id ~task_name:t.name ~how

(* Record an event attributed to the current task (the interpreter uses this
   for operation-level events). No-op when tracing is off. *)
let trace_emit s kind =
  match s.trace with
  | None -> ()
  | Some tr ->
      let t = s.current in
      Trace.record tr ~at:s.now ~task_id:t.id ~task_name:t.name kind

(* Interned op-event emitters for the interpreter's traced fast path: the
   caller resolves Site ids once per op site, and nothing here allocates. *)
let trace_op_start s ~op ~node ~func =
  match s.trace with
  | None -> ()
  | Some tr ->
      let t = s.current in
      Trace.op_start tr ~at:s.now ~task_id:t.id ~task_name:t.name ~op ~node
        ~func

let trace_op_end s ~op ~node ~func ~dur =
  match s.trace with
  | None -> ()
  | Some tr ->
      let t = s.current in
      Trace.op_end tr ~at:s.now ~task_id:t.id ~task_name:t.name ~op ~node ~func
        ~dur

let trace_op_fail s ~op ~node ~func ~err =
  match s.trace with
  | None -> ()
  | Some tr ->
      let t = s.current in
      Trace.op_fail tr ~at:s.now ~task_id:t.id ~task_name:t.name ~op ~node
        ~func ~err

let finish s t status =
  (match s.trace with
  | None -> ()
  | Some _ ->
      emit_finished s t
        (match status with
        | Exited -> "exited"
        | Failed e -> "failed: " ^ Printexc.to_string e
        | Killed -> "killed"));
  t.state <- Finished;
  t.status <- Some status;
  t.kont <- None;
  if not t.daemon then s.live <- s.live - 1;
  let hooks = t.exit_hooks in
  t.exit_hooks <- [];
  List.iter (fun h -> h status) hooks;
  s.current <- no_task;
  match status with
  | Failed e when not t.daemon ->
      Logs.debug (fun m ->
          m "task %s failed: %s" t.name (Printexc.to_string e))
  | Exited | Failed _ | Killed -> ()

(* Re-queue a blocked task. [gen] guards against stale wakers. The task
   keeps its continuation until [step] runs; a kill in between only sets
   [cancel_requested], which [step] honours. *)
let wake s t gen =
  if t.gen = gen && t.state = Blocked then begin
    match t.kont with
    | None -> assert false
    | Some _ ->
        t.state <- Ready;
        runq_push s t.step
  end

let suspended s t k =
  emit_blocked s t t.blocked_on;
  t.state <- Blocked;
  t.blocked_since <- s.now;
  t.gen <- t.gen + 1;
  t.kont <- Some k;
  let gen = t.gen in
  let register = s.register in
  s.register <- no_register;
  register (fun () -> wake s t gen);
  s.current <- no_task

(* Built once, when the task starts; [on_suspend] is the handler's answer
   to every [Suspend], so a suspend allocates no callback of its own. *)
let handler s t =
  let on_suspend = Some (fun k -> suspended s t k) in
  {
    Effect.Deep.retc = (fun () -> finish s t Exited);
    exnc =
      (fun e ->
        match e with
        | Cancelled -> finish s t Killed
        | e -> finish s t (Failed e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend { reason; register } ->
            t.blocked_on <- reason;
            s.register <- register;
            (on_suspend : ((a, unit) Effect.Deep.continuation -> unit) option)
        | _ -> None);
  }

(* A task with no continuation has not started yet. *)
let step s t () =
  match t.kont with
  | None ->
      if t.cancel_requested then finish s t Killed
      else begin
        let f = t.body in
        t.body <- noop;
        t.state <- Running;
        s.current <- t;
        s.switches <- s.switches + 1;
        Effect.Deep.match_with f () (handler s t)
      end
  | Some k ->
      t.kont <- None;
      t.state <- Running;
      s.current <- t;
      s.switches <- s.switches + 1;
      emit_resumed s t;
      if t.cancel_requested then Effect.Deep.discontinue k Cancelled
      else Effect.Deep.continue k ()

let spawn ?(name = "task") ?(daemon = false) s f =
  let t =
    {
      id = s.next_id;
      name;
      state = Ready;
      status = None;
      blocked_on = "";
      blocked_since = s.now;
      gen = 0;
      kont = None;
      body = f;
      step = noop;
      exit_hooks = [];
      cancel_requested = false;
      daemon;
      join_reason = "";
    }
  in
  t.step <- step s t;
  s.next_id <- s.next_id + 1;
  s.spawned <- s.spawned + 1;
  if not daemon then s.live <- s.live + 1;
  s.tasks <- t :: s.tasks;
  emit_spawned s t;
  runq_push s t.step;
  t

let suspend ~reason ~register =
  Effect.perform (Suspend { reason; register })

let at s time f =
  let time = if time < s.now then s.now else time in
  Heap.push s.timers ~time f

let after s delay f = at s (Int64.add s.now delay) f

(* Constant reason: sleep is the hottest suspend (every CPU-quantum flush
   goes through it) and a formatted per-call reason string is measurable
   there. The duration is recoverable from the trace timestamps. *)
let sleep delay =
  let s = get () in
  suspend ~reason:"sleep" ~register:(fun waker -> after s delay waker)

let yield () =
  let s = get () in
  suspend ~reason:"yield" ~register:(fun waker -> runq_push s waker)

let kill s t =
  match t.state with
  | Finished -> ()
  | Running ->
      if s.current == t then raise Cancelled
      else
        (* A running task other than the current one is impossible in a
           single-domain scheduler. *)
        assert false
  | Ready -> t.cancel_requested <- true
  | Blocked -> (
      t.cancel_requested <- true;
      match t.kont with
      | None -> ()
      | Some k ->
          t.kont <- None;
          t.gen <- t.gen + 1;
          runq_push s (fun () ->
              t.state <- Running;
              s.current <- t;
              Effect.Deep.discontinue k Cancelled))

let on_exit t hook =
  match t.status with
  | Some st -> hook st
  | None -> t.exit_hooks <- hook :: t.exit_hooks

let join_reason t =
  if String.length t.join_reason = 0 then t.join_reason <- "join " ^ t.name;
  t.join_reason

let join t =
  (match t.status with
  | Some _ -> ()
  | None ->
      suspend ~reason:(join_reason t)
        ~register:(fun waker -> on_exit t (fun _ -> waker ())));
  match t.status with Some st -> st | None -> assert false

(* Run [f] in a child task with a deadline. If the deadline passes first the
   child is killed and [Error `Timeout] is returned. *)
let timeout_join ?(name = "timed") s ~timeout f =
  let result = ref None in
  let child = spawn ~name s (fun () -> result := Some (f ())) in
  let fired = ref false in
  suspend
    ~reason:(Fmt.str "timeout_join %s" name)
    ~register:(fun waker ->
      on_exit child (fun _ -> waker ());
      after s timeout (fun () ->
          fired := true;
          waker ()));
  match child.status with
  | Some Exited -> (
      match !result with Some v -> Ok v | None -> assert false)
  | Some (Failed e) -> Error (`Exn e)
  | Some Killed -> Error (`Killed)
  | None ->
      assert !fired;
      kill s child;
      Error `Timeout

(* --- persistent timeout runner ---

   [timeout_join] spawns a fresh child fiber per call; on a periodic path
   (the watchdog driver runs every checker through it, forever) that is a
   task record, closures and trace bookkeeping per run. A [runner] keeps
   one daemon worker fiber alive across runs: each run hands the worker a
   thunk and wakes it, so steady state costs a wake instead of a spawn.

   Scheduling equivalence with [timeout_join] (load-bearing — E20 sweep
   digests marshal virtual-time latencies): each run performs exactly one
   run-queue push to start the work (worker wake vs child spawn), one push
   to resume the caller, and registers the same deadline timer (which fires
   at the deadline in both designs, woken or not). Virtual timestamps,
   [events_fired] and [switches] are therefore identical; only [spawned]
   and the sched-level trace shape differ, and neither reaches a digest.
   On timeout the worker is killed exactly like the old child and is
   respawned lazily by the next run. *)

type runner = {
  r_sched : t;
  r_name : string;
  r_reason : string; (* "timeout_join <name>", same bytes as [timeout_join] *)
  r_idle : string;
  mutable r_worker : task option;
  mutable r_job : (unit -> unit) option;
  mutable r_wake : (unit -> unit) option; (* wakes the idle worker *)
  mutable r_notify : (unit -> unit) option; (* wakes the waiting caller *)
  mutable r_done : bool;
  mutable r_exn : exn option;
}

let runner ?(name = "timed") s =
  {
    r_sched = s;
    r_name = name;
    r_reason = "timeout_join " ^ name;
    r_idle = "runner idle " ^ name;
    r_worker = None;
    r_job = None;
    r_wake = None;
    r_notify = None;
    r_done = false;
    r_exn = None;
  }

let runner_notify r =
  match r.r_notify with
  | Some w ->
      r.r_notify <- None;
      w ()
  | None -> ()

let rec runner_loop r () =
  match r.r_job with
  | Some job ->
      r.r_job <- None;
      (try job () with
      | Cancelled as e -> raise e
      | e -> r.r_exn <- Some e);
      r.r_done <- true;
      runner_notify r;
      runner_loop r ()
  | None ->
      suspend ~reason:r.r_idle ~register:(fun waker -> r.r_wake <- Some waker);
      runner_loop r ()

let runner_ensure_worker r =
  match r.r_worker with
  | Some _ -> ()
  | None ->
      let w = spawn ~name:r.r_name ~daemon:true r.r_sched (runner_loop r) in
      (* Guarded by identity: a worker killed on timeout may only die after
         its replacement was spawned; its exit must not clobber the new
         worker or spuriously wake a later run's caller. *)
      on_exit w (fun _ ->
          match r.r_worker with
          | Some w' when w' == w ->
              r.r_worker <- None;
              runner_notify r
          | Some _ | None -> ());
      r.r_worker <- Some w

let runner_run r ~timeout f =
  let s = r.r_sched in
  let result = ref None in
  r.r_done <- false;
  r.r_exn <- None;
  r.r_job <- Some (fun () -> result := Some (f ()));
  runner_ensure_worker r;
  (match r.r_wake with
  | Some w ->
      r.r_wake <- None;
      w ()
  | None -> ());
  let fired = ref false in
  suspend ~reason:r.r_reason
    ~register:(fun waker ->
      r.r_notify <- Some waker;
      after s timeout (fun () ->
          fired := true;
          waker ()));
  r.r_notify <- None;
  if r.r_done then
    match r.r_exn with
    | Some e -> Error (`Exn e)
    | None -> (
        match !result with Some v -> Ok v | None -> Error `Killed)
  else if r.r_worker = None then begin
    r.r_job <- None;
    Error `Killed
  end
  else begin
    assert !fired;
    (match r.r_worker with
    | Some w ->
        r.r_worker <- None;
        kill s w
    | None -> ());
    r.r_job <- None;
    Error `Timeout
  end

let runner_stop r =
  match r.r_worker with
  | Some w ->
      r.r_worker <- None;
      kill r.r_sched w
  | None -> ()

let blocked_tasks s =
  List.filter (fun t -> t.state = Blocked && not t.daemon) s.tasks

let run ?(until = Time.never) s =
  let saved = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some s);
  let restore () = Domain.DLS.set ambient saved in
  let rec loop () =
    if s.rq_len > 0 then begin
      let job = runq_pop s in
      s.events_fired <- s.events_fired + 1;
      job ();
      s.current <- no_task;
      loop ()
    end
    else if Heap.is_empty s.timers then
      if s.live > 0 then Deadlock (blocked_tasks s) else Quiescent
    else
      let time = Heap.min_time s.timers in
      if Int64.of_int time <= until then begin
        let fn = Heap.take s.timers in
        if Int64.of_int time > s.now then s.now <- Int64.of_int time;
        s.events_fired <- s.events_fired + 1;
        fn ();
        s.current <- no_task;
        loop ()
      end
      else begin
        s.now <- until;
        Time_limit
      end
  in
  match loop () with
  | result ->
      restore ();
      result
  | exception e ->
      restore ();
      raise e

let pp_task ppf t =
  let state =
    match t.state with
    | Ready -> "ready"
    | Running -> "running"
    | Blocked -> Fmt.str "blocked on %s" t.blocked_on
    | Finished -> (
        match t.status with
        | Some Exited -> "exited"
        | Some (Failed e) -> Fmt.str "failed (%s)" (Printexc.to_string e)
        | Some Killed -> "killed"
        | None -> "finished")
  in
  Fmt.pf ppf "#%d %s [%s]" t.id t.name state
