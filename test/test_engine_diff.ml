(* Differential tests between the two IR execution engines: the closure
   compiler (Wd_ir.Compile, the default) and the tree-walking reference
   interpreter. The engines must be observationally identical — statement
   counts, virtual-time progression, final global state and Violation
   payloads — on arbitrary programs and on every error path. *)

open Wd_ir
open Ast
module B = Builder
module Sched = Wd_sim.Sched
module Time = Wd_sim.Time
module Randgen = Wd_testgen.Randgen
module Engine = Wd_testgen.Engine

(* --- random programs: identical traces over >= 50 seeds --- *)

type trace = {
  tr_stmts : int;
  tr_end : int64;  (* virtual time when the run went quiescent *)
  tr_globals : (string * value) list;
}

let run_trace ~engine seed =
  let prog = Randgen.gen_program seed in
  let sched = Sched.create ~seed () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed in
  let main = Interp.create ~engine ~node:"n1" ~res prog in
  ignore (Interp.start main sched);
  ignore (Sched.run ~until:(Time.sec 12) sched);
  {
    tr_stmts = Interp.stmts_executed main;
    tr_end = Sched.now sched;
    tr_globals =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) res.Runtime.globals []
      |> List.sort compare;
  }

let n_seeds = 60

let test_randprog_traces () =
  for seed = 0 to n_seeds - 1 do
    let c = run_trace ~engine:`Compiled seed in
    let t = run_trace ~engine:`Treewalk seed in
    Alcotest.(check int) (Fmt.str "stmts_executed (seed %d)" seed) t.tr_stmts
      c.tr_stmts;
    Alcotest.(check int64) (Fmt.str "virtual end time (seed %d)" seed)
      t.tr_end c.tr_end;
    if c.tr_globals <> t.tr_globals then
      Alcotest.failf "final globals differ at seed %d:@.compiled %a@.treewalk %a"
        seed
        Fmt.(list ~sep:sp (pair string pp_value))
        c.tr_globals
        Fmt.(list ~sep:sp (pair string pp_value))
        t.tr_globals
  done

(* --- error paths: byte-identical Violation / Ir_error payloads --- *)

(* Run [fname] on a fresh node and render whatever it raises. *)
let outcome_of ~engine prog fname =
  let sched = Sched.create ~seed:7 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed:7 in
  let it = Interp.create ~engine ~node:"n1" ~res prog in
  let out = ref "no outcome" in
  ignore
    (Sched.spawn ~name:"diff" sched (fun () ->
         match Interp.call it fname [] with
         | v -> out := Fmt.str "value %a" pp_value v
         | exception Interp.Violation { loc; vkind; msg } ->
             out := Fmt.str "violation %a %s: %s" Loc.pp loc vkind msg
         | exception Ir_error m -> out := "ir_error: " ^ m));
  ignore (Sched.run ~until:(Time.sec 5) sched);
  !out

let ret e = [ B.return e ]
let prog_of body = B.program "bad" ~funcs:[ B.func "f" ~params:[] body ] ~entries:[]

let bad_cases =
  [
    ("unbound variable", prog_of (ret (B.v "nope")));
    ("int op on bool", prog_of (ret B.(bconst true +: i 1)));
    ("int op on str rhs", prog_of (ret B.(i 1 *: s "x")));
    ("comparison on mixed", prog_of (ret B.(s "a" <: i 1)));
    ("concat on non-str", prog_of (ret B.(i 1 ^: s "x")));
    ("division by zero", prog_of (ret B.(i 1 /: i 0)));
    ("mod by zero", prog_of (ret B.(i 7 %: i 0)));
    ("not on int", prog_of (ret (B.not_ (B.i 3))));
    ("neg on str", prog_of (ret (B.neg (B.s "x"))));
    ("len on int", prog_of (ret (B.len (B.i 3))));
    ("len on list ok", prog_of (ret (B.len (B.prim "range" [ B.i 4 ]))));
    ("len on map ok", prog_of (ret (B.len (B.prim "map_empty" []))));
    ("fst on non-pair", prog_of (ret (B.fst_ (B.i 1))));
    ("snd on non-pair", prog_of (ret (B.snd_ (B.s "p"))));
    ( "condition not bool",
      prog_of [ B.if_ (B.i 1) [ B.return_unit ] [ B.return_unit ] ] );
    ("logic op on non-bool lhs", prog_of (ret B.(i 1 &&: bconst true)));
    ("logic short-circuits bad rhs", prog_of (ret B.(bconst false &&: i 3)));
    ( "foreach over non-list",
      prog_of [ B.foreach "x" (B.i 3) [ B.return_unit ]; B.return_unit ] );
    ("unknown prim", prog_of [ B.let_ "x" (B.prim "no_such_prim" []); B.return_unit ]);
    ("prim arg error", prog_of (ret (B.prim "list_head" [ B.prim "list_empty" [] ])));
    ( "list_nth negative",
      prog_of (ret (B.prim "list_nth" [ B.prim "range" [ B.i 3 ]; B.i (-1) ])) );
    ( "bytes_make too large",
      prog_of
        (ret (B.prim "bytes_make" [ B.i (Sys.max_string_length + 1); B.s "x" ])) );
    ( "pad_left too large",
      prog_of
        (ret
           (B.prim "pad_left"
              [ B.s "7"; B.i (Sys.max_string_length + 1); B.s "0" ])) );
    ("assert failure", prog_of [ B.assert_ (B.bconst false) "boom" ]);
    ( "call arity",
      B.program "bad"
        ~funcs:
          [
            B.func "f" ~params:[] [ B.call "g" []; B.return_unit ];
            B.func "g" ~params:[ "a" ] [ B.return (B.v "a") ];
          ]
        ~entries:[] );
    ( "unknown function",
      prog_of [ B.call "missing" [ B.i 1 ]; B.return_unit ] );
    ( "call depth exceeded",
      B.program "bad"
        ~funcs:[ B.func "f" ~params:[] [ B.call "f" []; B.return_unit ] ]
        ~entries:[] );
  ]

let test_error_payloads () =
  List.iter
    (fun (name, prog) ->
      let c = outcome_of ~engine:`Compiled prog "f" in
      let t = outcome_of ~engine:`Treewalk prog "f" in
      Alcotest.(check string) name t c;
      Alcotest.(check bool)
        (name ^ " produced an outcome")
        false (c = "no outcome"))
    bad_cases

(* --- IC invalidation: redefinition-after-compile, trace-diffed ---

   Same random programs, but the compiled run has its compile cache cleared
   mid-run (epoch bump) while a *different* random program is compiled in
   between — the classic redefinition-after-compile pattern. Every call
   site's inline cache must refill against the new epoch and keep executing
   its own (unchanged) program: traces stay byte-identical to the
   tree-walker, and the refill counter moves. *)

let run_trace_with_redefinition seed =
  let prog = Randgen.gen_program seed in
  let sched = Sched.create ~seed () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed in
  let main = Interp.create ~engine:`Compiled ~node:"n1" ~res prog in
  ignore (Interp.start main sched);
  (* mid-run: invalidate, then compile an unrelated program into the fresh
     epoch so the old sites cannot accidentally revalidate *)
  Sched.at sched (Time.sec 5) (fun () ->
      Interp.clear_compile_cache ();
      ignore (Interp.precompile (Randgen.gen_program (seed + 1000))));
  Sched.at sched (Time.sec 8) (fun () -> Interp.clear_compile_cache ());
  ignore (Sched.run ~until:(Time.sec 12) sched);
  {
    tr_stmts = Interp.stmts_executed main;
    tr_end = Sched.now sched;
    tr_globals =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) res.Runtime.globals []
      |> List.sort compare;
  }

let n_redef_seeds = 30

let test_ic_invalidation_traces () =
  let refills0 = Interp.ic_refills () in
  for seed = 0 to n_redef_seeds - 1 do
    let c = run_trace_with_redefinition seed in
    let t = run_trace ~engine:`Treewalk seed in
    Alcotest.(check int)
      (Fmt.str "stmts_executed under redefinition (seed %d)" seed)
      t.tr_stmts c.tr_stmts;
    Alcotest.(check int64)
      (Fmt.str "virtual end time under redefinition (seed %d)" seed)
      t.tr_end c.tr_end;
    if c.tr_globals <> t.tr_globals then
      Alcotest.failf "final globals differ at seed %d under redefinition" seed
  done;
  Alcotest.(check bool)
    "epoch bumps forced inline-cache refills" true
    (Interp.ic_refills () > refills0)

(* --- frame pools: reuse on iterated calls, correctness on deep recursion --- *)

let pool_prog =
  B.program "pool"
    ~funcs:
      [
        B.func "leaf" ~params:[ "x" ]
          [ B.let_ "y" B.(v "x" +: i 1); B.return (B.v "y") ];
        B.func "iterate" ~params:[ "n" ]
          [
            B.let_ "i" (B.i 0);
            B.while_
              B.(v "i" <: v "n")
              [ B.call ~bind:"r" "leaf" [ B.v "i" ];
                B.assign "i" B.(v "i" +: i 1) ];
            B.return (B.v "i");
          ];
        (* depth-bounded double recursion: rec(n) = rec(n-1) + rec(n-1) at
           the bottom two levels, so frames are drawn and returned on both
           the normal and the deep path *)
        B.func "rec" ~params:[ "n" ]
          [
            B.if_
              B.(v "n" <=: i 0)
              [ B.return (B.i 1) ]
              [
                B.call ~bind:"a" "rec" [ B.(v "n" -: i 1) ];
                B.return B.(v "a" +: i 1);
              ];
          ];
      ]
    ~entries:[]

let run_pool_fn ~engine fname arg =
  let sched = Sched.create ~seed:11 () in
  let reg = Wd_env.Faultreg.create () in
  let res = Randgen.make_env ~reg ~seed:11 in
  let it = Interp.create ~engine ~node:"n1" ~res pool_prog in
  let out = ref VUnit in
  ignore
    (Sched.spawn ~name:"pool" sched (fun () ->
         out := Interp.call it fname [ VInt arg ]));
  ignore (Sched.run sched);
  (it, !out, Interp.stmts_executed it)

let test_frame_pool_reuse () =
  let it, v, _ = run_pool_fn ~engine:`Compiled "iterate" 10_000 in
  Alcotest.(check bool) "iterate result" true (v = VInt 10_000);
  (match Interp.frame_pool_stats it "leaf" with
  | None -> Alcotest.fail "no frame pool stats for leaf on compiled engine"
  | Some (pooled, hits) ->
      (* first call misses (empty pool), every later one must hit *)
      Alcotest.(check bool)
        (Fmt.str "leaf pool hits %d >= 9999" hits)
        true (hits >= 9_999);
      Alcotest.(check bool)
        (Fmt.str "leaf pool retains %d frame(s)" pooled)
        true
        (pooled >= 1 && pooled <= 32));
  Alcotest.(check (option (pair int int)))
    "treewalk has no frame pools" None
    (let it_tw, _, _ = run_pool_fn ~engine:`Treewalk "iterate" 10 in
     Interp.frame_pool_stats it_tw "leaf")

let test_deep_recursion_parity () =
  (* depth 500 sits just under the 512 budget: 500 live frames at peak,
     far beyond the pool cap, so growth and drain paths both run *)
  let _, vc, sc = run_pool_fn ~engine:`Compiled "rec" 500 in
  let _, vt, st = run_pool_fn ~engine:`Treewalk "rec" 500 in
  Alcotest.(check bool) "deep recursion value parity" true (vc = vt);
  Alcotest.(check int) "deep recursion stmts parity" st sc;
  Alcotest.(check bool) "deep recursion computed" true (vc = VInt 501)

(* --- E17 fleet summaries: byte-identical across engines and widths --- *)

let test_e17_engine_identity () =
  let module E = Wd_harness.Experiments in
  let e17_text () = (E.find "cluster").E.ex_render () in
  E.set_jobs 4;
  let compiled = Engine.with_default `Compiled e17_text in
  E.set_jobs 1;
  let treewalk = Engine.with_default `Treewalk e17_text in
  Alcotest.(check string)
    "E17 fleet summary byte-identical across engines and --jobs widths"
    compiled treewalk

(* --- the process-wide default reaches every layer ---

   Output identity cannot tell whether the tree-walker really ran, so look
   at the compile cache instead: under a treewalk default, booting every
   single-node system with its generated watchdog plus a mixed fleet must
   compile nothing at all — no target, no checker, no cluster node. *)

let boot_every_layer () =
  Wd_autowatchdog.Generate.clear_cache ();
  Interp.clear_compile_cache ();
  List.iter
    (fun system ->
      let sched = Sched.create ~seed:1 () in
      let reg = Wd_env.Faultreg.create () in
      ignore
        (Wd_harness.Systems.boot ~sched ~reg
           ~mode:Wd_harness.Systems.Wd_generated system))
    Wd_harness.Systems.all_systems;
  ignore
    (Wd_cluster.Sim.boot ~seed:1
       ~topology:
         (Wd_cluster.Topology.mixed
            Wd_cluster.Topology.[ Zkmini; Cstore; Zkmini ])
       ());
  Interp.compile_cache_stats ()

let test_default_reaches_every_layer () =
  Alcotest.(check (pair int int))
    "treewalk default compiles nothing" (0, 0)
    (Engine.with_default `Treewalk boot_every_layer);
  let _, misses = Engine.with_default `Compiled boot_every_layer in
  Alcotest.(check bool) "compiled default compiles" true (misses > 0)

let () =
  Alcotest.run "engine_diff"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Fmt.str "%d random programs trace-identical on both engines"
               n_seeds)
            `Slow test_randprog_traces;
          Alcotest.test_case "violation payloads byte-identical" `Quick
            test_error_payloads;
          Alcotest.test_case
            (Fmt.str
               "%d programs trace-identical under redefinition-after-compile"
               n_redef_seeds)
            `Slow test_ic_invalidation_traces;
          Alcotest.test_case "frame pool reused across iterated calls" `Quick
            test_frame_pool_reuse;
          Alcotest.test_case "deep recursion parity (500 frames)" `Quick
            test_deep_recursion_parity;
          Alcotest.test_case "E17 byte-identical across engines" `Slow
            test_e17_engine_identity;
          Alcotest.test_case "engine default reaches every layer" `Quick
            test_default_reaches_every_layer;
        ] );
    ]
