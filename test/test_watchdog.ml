(* Tests for the watchdog core: reports, context table, driver behaviour
   (scheduling, timeout confinement, failure-signature capture, debounce,
   adaptive slowness), and alarm policy. *)

open Wd_watchdog
module Sched = Wd_sim.Sched
module Time = Wd_sim.Time
open Wd_ir.Ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- report --- *)

let test_report_pp () =
  let r =
    Report.make ~at:(Time.sec 3) ~checker_id:"c1" ~fkind:Report.Hang
      ~loc:(Wd_ir.Loc.make ~func:"f" ~path:[ 1; 2 ] ~uid:9)
      ~op_desc:"disk_write(d)" ()
  in
  let s = Fmt.str "%a" Report.pp r in
  check "mentions checker" true (String.length s > 0);
  check "liveness kind" true (Report.is_liveness r);
  Alcotest.(check string) "kind name" "hang" (Report.fkind_name r.Report.fkind)

(* --- context table --- *)

let test_wcontext_readiness () =
  let w = Wcontext.create () in
  Wcontext.register_unit w ~unit_id:"u" ~params:[ "a"; "b" ];
  Wcontext.bind_hook w ~hook_id:0 ~unit_id:"u" ~captures:[ ("a", "t_a") ];
  Wcontext.bind_hook w ~hook_id:1 ~unit_id:"u" ~captures:[ ("b", "t_b") ];
  check "not ready" false (Wcontext.ready w "u");
  Wcontext.sink w ~now:1L 0 [ ("t_a", VInt 1) ];
  check "half ready" false (Wcontext.ready w "u");
  Wcontext.sink w ~now:2L 1 [ ("t_b", VInt 2) ];
  check "ready" true (Wcontext.ready w "u");
  match Wcontext.args w "u" with
  | Some [ VInt 1; VInt 2 ] -> ()
  | _ -> Alcotest.fail "ordered args"

let test_wcontext_empty_params_always_ready () =
  let w = Wcontext.create () in
  Wcontext.register_unit w ~unit_id:"u" ~params:[];
  check "ready" true (Wcontext.ready w "u");
  check "empty args" true (Wcontext.args w "u" = Some [])

let test_wcontext_replication () =
  let w = Wcontext.create () in
  Wcontext.register_unit w ~unit_id:"u" ~params:[ "a" ];
  Wcontext.bind_hook w ~hook_id:0 ~unit_id:"u" ~captures:[ ("a", "t") ];
  let stored = Bytes.of_string "XY" in
  Wcontext.sink w ~now:1L 0 [ ("t", VBytes stored) ];
  (match Wcontext.args w "u" with
  | Some [ VBytes b ] ->
      check "fetched buffer never aliases the stored one" false (b == stored);
      (* mutating the fetched copy must not damage the stored context *)
      Bytes.set b 0 '!';
      Alcotest.(check string) "stored context intact" "XY" (Bytes.to_string stored);
      (* a new capture invalidates the cached copy: the next fetch reflects
         the fresh capture, untouched by the earlier handout *)
      Wcontext.sink w ~now:2L 0 [ ("t", VBytes (Bytes.of_string "XY")) ];
      (match Wcontext.args w "u" with
      | Some [ VBytes b2 ] ->
          Alcotest.(check string) "fresh copy after rewrite" "XY"
            (Bytes.to_string b2)
      | _ -> Alcotest.fail "fetch")
  | _ -> Alcotest.fail "fetch");
  check_int "updates counted" 2 (Wcontext.updates w "u")

let test_wcontext_staleness () =
  let w = Wcontext.create () in
  Wcontext.register_unit w ~unit_id:"u" ~params:[ "a" ];
  Wcontext.bind_hook w ~hook_id:0 ~unit_id:"u" ~captures:[ ("a", "t") ];
  Wcontext.sink w ~now:(Time.sec 1) 0 [ ("t", VInt 1) ];
  check "age measured" true
    (Wcontext.staleness w ~now:(Time.sec 5) "u" = Some (Time.sec 4));
  Wcontext.sink w ~now:(Time.sec 6) 0 [ ("t", VInt 2) ];
  check "refreshed" true (Wcontext.staleness w ~now:(Time.sec 6) "u" = Some 0L)

let test_wcontext_unknown_hook_ignored () =
  let w = Wcontext.create () in
  Wcontext.sink w ~now:0L 99 [ ("x", VInt 0) ];
  check "no units" true (Wcontext.args w "nothing" = None)

(* COW-vs-eager differential: drive the real table and an eager-copy
   reference model in lockstep through a mutation-heavy random schedule of
   hook writes and reads. Every read must return values equal to the
   reference, and no VBytes buffer in a handout may alias the stored
   context. (Checkers never mutate fetched buffers in place — the IR has no
   primitive for it — so the cached-copy reuse is invisible here, exactly
   as it is in the tree.) *)

let gen_cow_value =
  QCheck.Gen.(
    let bytes_v =
      map (fun s -> VBytes (Bytes.of_string s)) (string_size (1 -- 12))
    in
    oneof
      [
        bytes_v;
        map (fun i -> VInt i) small_int;
        map (fun (s, b) -> VPair (VStr s, b)) (pair small_string bytes_v);
        map (fun bs -> VList bs) (list_size (1 -- 3) bytes_v);
        map
          (fun (k, b) -> VMap [ (k, b); ("n", VInt 1) ])
          (pair small_string bytes_v);
      ])

let gen_cow_ops =
  QCheck.Gen.(
    list_size (5 -- 60)
      (oneof
         [
           map (fun (i, v) -> `Sink (i mod 2, v)) (pair small_int gen_cow_value);
           return `Read;
         ]))

let rec bytes_of_value acc = function
  | VBytes b -> b :: acc
  | VUnit | VBool _ | VInt _ | VStr _ -> acc
  | VList vs -> List.fold_left bytes_of_value acc vs
  | VPair (a, b) -> bytes_of_value (bytes_of_value acc a) b
  | VMap kvs -> List.fold_left (fun acc (_, v) -> bytes_of_value acc v) acc kvs

let prop_wcontext_cow_matches_eager =
  QCheck.Test.make ~name:"COW context reads match an eager-copy reference"
    ~count:100
    (QCheck.make gen_cow_ops)
    (fun ops ->
      let w = Wcontext.create () in
      Wcontext.register_unit w ~unit_id:"u" ~params:[ "a"; "b" ];
      Wcontext.bind_hook w ~hook_id:0 ~unit_id:"u"
        ~captures:[ ("a", "ta"); ("b", "tb") ];
      let eager : (string, value) Hashtbl.t = Hashtbl.create 4 in
      let stored : (string, value) Hashtbl.t = Hashtbl.create 4 in
      let now = ref 0L in
      let ok = ref true in
      List.iter
        (fun op ->
          now := Int64.add !now 1L;
          match op with
          | `Sink (i, v) ->
              let param, tmp = if i = 0 then ("a", "ta") else ("b", "tb") in
              (* each table gets a private copy of the captured value, as
                 the interpreter's hook path provides *)
              let v_cow = copy_value v in
              Wcontext.sink w ~now:!now 0 [ (tmp, v_cow) ];
              Hashtbl.replace stored param v_cow;
              Hashtbl.replace eager param (copy_value v)
          | `Read -> (
              let expect =
                match
                  (Hashtbl.find_opt eager "a", Hashtbl.find_opt eager "b")
                with
                | Some a, Some b -> Some [ copy_value a; copy_value b ]
                | _ -> None
              in
              match (Wcontext.args w "u", expect) with
              | None, None -> ()
              | Some got, Some want ->
                  if not (List.for_all2 value_equal got want) then ok := false;
                  let stored_bytes =
                    Hashtbl.fold (fun _ v acc -> bytes_of_value acc v) stored []
                  in
                  List.iter
                    (fun g ->
                      List.iter
                        (fun gb ->
                          if List.memq gb stored_bytes then ok := false)
                        (bytes_of_value [] g))
                    got
              | None, Some _ | Some _, None -> ok := false))
        ops;
      !ok)

(* --- driver --- *)

let with_driver ?policy f =
  let s = Sched.create ~seed:2 () in
  let driver = Driver.create ?policy s in
  f s driver

let const_checker ?(period = Time.sec 1) ?(timeout = Time.sec 5) ~id outcome =
  Checker.make ~period ~timeout ~id (fun ~now:_ -> outcome ())

let test_driver_schedules_periodically () =
  with_driver (fun s driver ->
      let runs = ref 0 in
      Driver.add_checker driver
        (const_checker ~id:"ok" (fun () -> incr runs; Checker.Pass));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 10) s);
      check "about ten runs" true (!runs >= 9 && !runs <= 10);
      check_int "no reports" 0 (List.length (Driver.reports driver)))

let test_driver_reports_failures () =
  with_driver (fun s driver ->
      Driver.add_checker driver
        (const_checker ~id:"bad" (fun () ->
             Checker.Fail
               (Report.make ~at:(Sched.now s) ~checker_id:"bad"
                  ~fkind:(Report.Error_sig "oops") ())));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 3) s);
      (* dedup window suppresses repeats of the same finding *)
      check_int "one deduped report" 1 (List.length (Driver.reports driver)))

let test_driver_timeout_becomes_hang_report () =
  with_driver (fun s driver ->
      Driver.add_checker driver
        (Checker.make ~id:"hangs" ~period:(Time.sec 1) ~timeout:(Time.sec 2)
           ~locate:(fun () ->
             (Some (Wd_ir.Loc.make ~func:"stuck_op" ~path:[] ~uid:1), "op", []))
           (fun ~now:_ -> Sched.sleep (Time.sec 60); Checker.Pass));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 5) s);
      match Driver.reports driver with
      | r :: _ ->
          check "hang kind" true (r.Report.fkind = Report.Hang);
          check "located" true
            (match r.Report.loc with
            | Some l -> Wd_ir.Loc.func l = "stuck_op"
            | None -> false)
      | [] -> Alcotest.fail "expected a hang report")

let test_driver_survives_checker_crash () =
  with_driver (fun s driver ->
      let good_runs = ref 0 in
      Driver.add_checker driver
        (const_checker ~id:"crasher" (fun () -> failwith "bug in checker"));
      Driver.add_checker driver
        (const_checker ~id:"good" (fun () -> incr good_runs; Checker.Pass));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 5) s);
      check "good checker kept running" true (!good_runs >= 4);
      match Driver.reports driver with
      | r :: _ -> (
          match r.Report.fkind with
          | Report.Checker_crash _ -> ()
          | _ -> Alcotest.fail "crash signature expected")
      | [] -> Alcotest.fail "crash must be reported")

let test_driver_skip_not_a_failure () =
  with_driver (fun s driver ->
      Driver.add_checker driver
        (const_checker ~id:"skippy" (fun () -> Checker.Skip "not ready"));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 5) s);
      check_int "no reports" 0 (List.length (Driver.reports driver));
      match Driver.stats driver with
      | [ st ] -> check "skips counted" true (st.Driver.cs_skips >= 4)
      | _ -> Alcotest.fail "one checker")

let test_driver_confirmations_debounce () =
  let policy = Policy.make ~confirmations:3 () in
  with_driver ~policy (fun s driver ->
      let n = ref 0 in
      Driver.add_checker driver
        (const_checker ~id:"flaky" (fun () ->
             incr n;
             if !n = 1 then
               Checker.Fail
                 (Report.make ~at:(Sched.now s) ~checker_id:"flaky"
                    ~fkind:(Report.Error_sig "blip") ())
             else Checker.Pass));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 5) s);
      check_int "single blip suppressed" 0 (List.length (Driver.reports driver)))

let test_driver_adaptive_slow () =
  with_driver (fun s driver ->
      let n = ref 0 in
      Driver.add_checker driver
        (Checker.make ~id:"adaptive" ~period:(Time.sec 1) ~timeout:(Time.sec 20)
           (fun ~now:_ ->
             incr n;
             (* normal runs take 1ms; from run 10 they take 400ms *)
             Sched.sleep (if !n < 10 then Time.ms 1 else Time.ms 400);
             Checker.Pass));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 15) s);
      match Driver.reports driver with
      | r :: _ -> check "slow kind" true (r.Report.fkind = Report.Slow)
      | [] -> Alcotest.fail "expected a Slow report")

let test_driver_stop () =
  with_driver (fun s driver ->
      let runs = ref 0 in
      Driver.add_checker driver
        (const_checker ~id:"c" (fun () -> incr runs; Checker.Pass));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 3) s);
      Driver.stop driver;
      let before = !runs in
      ignore (Sched.run ~until:(Time.sec 10) s);
      check_int "no runs after stop" before !runs)

let test_policy_validation_suppression () =
  let validate _ = false in
  let policy = Policy.with_validation ~suppress:true validate Policy.default in
  with_driver ~policy (fun s driver ->
      Driver.add_checker driver
        (const_checker ~id:"mimic-ish" (fun () ->
             Checker.Fail
               (Report.make ~at:(Sched.now s) ~checker_id:"mimic-ish"
                  ~fkind:(Report.Error_sig "maybe") ())));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 3) s);
      check_int "suppressed" 0 (List.length (Driver.reports driver));
      check "kept aside" true (List.length (Driver.suppressed driver) >= 1))

let test_driver_slow_elapsed_override () =
  (* a checker that spends wall time waiting (e.g. on locks) but reports a
     tiny op time must not be flagged slow *)
  with_driver (fun s driver ->
      let n = ref 0 in
      Driver.add_checker driver
        (Checker.make ~id:"waity" ~period:(Time.sec 1) ~timeout:(Time.sec 30)
           ~slow_elapsed:(fun () -> Some (Time.us 100))
           (fun ~now:_ ->
             incr n;
             (* wall time balloons after warm-up, op time stays tiny *)
             Sched.sleep (if !n < 8 then Time.ms 1 else Time.ms 500);
             Checker.Pass));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 20) s);
      check_int "no slow reports" 0 (List.length (Driver.reports driver)))

let test_driver_first_report_where () =
  with_driver (fun s driver ->
      Driver.add_checker driver
        (const_checker ~id:"a" (fun () ->
             Checker.Fail
               (Report.make ~at:(Sched.now s) ~checker_id:"a"
                  ~fkind:(Report.Error_sig "x") ())));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 3) s);
      check "finds by predicate" true
        (Driver.first_report_where driver (fun r -> r.Report.checker_id = "a")
        <> None);
      check "misses absent" true
        (Driver.first_report_where driver (fun r -> r.Report.checker_id = "zz")
        = None))

let test_validation_marks_reports () =
  (* without suppression, validation annotates the report instead *)
  let policy = Policy.with_validation (fun _ -> true) Policy.default in
  with_driver ~policy (fun s driver ->
      Driver.add_checker driver
        (const_checker ~id:"m" (fun () ->
             Checker.Fail
               (Report.make ~at:(Sched.now s) ~checker_id:"m"
                  ~fkind:(Report.Error_sig "e") ())));
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 3) s);
      match Driver.reports driver with
      | r :: _ -> check "validated flag" true (r.Report.validated = Some true)
      | [] -> Alcotest.fail "expected a report")

let test_driver_add_checker_while_running () =
  with_driver (fun s driver ->
      Driver.start driver;
      ignore (Sched.run ~until:(Time.sec 1) s);
      let runs = ref 0 in
      Driver.add_checker driver
        (const_checker ~id:"late" (fun () -> incr runs; Checker.Pass));
      ignore (Sched.run ~until:(Time.sec 5) s);
      check "late checker runs" true (!runs >= 3))

(* The host-cost benchmark's scheduling contract: a load probe installed
   on the driver's [Schedule] is never called, its counters stay 0, and
   installing it leaves the simulation's schedule untouched. *)
let test_driver_schedule_contract () =
  let run ~probe =
    with_driver (fun s driver ->
        List.iter
          (fun (id, period) ->
            Driver.add_checker driver
              (const_checker ~period ~id (fun () -> Checker.Pass)))
          [ ("fast", Time.ms 700); ("slow", Time.sec 1) ];
        if probe then
          Schedule.set_load_probe (Driver.schedule driver) (fun () ->
              Alcotest.fail "load probe called");
        Driver.start driver;
        ignore (Sched.run ~until:(Time.sec 10) s);
        let st = Schedule.stats (Driver.schedule driver) in
        check_int "dedup skips" 0 st.Schedule.st_dedup_skips;
        check_int "shared syncs" 0 st.Schedule.st_shared_syncs;
        List.iter
          (fun c ->
            check (c.Driver.cs_id ^ " ran") true (c.Driver.cs_executions > 0))
          (Driver.stats driver);
        Sched.stats s)
  in
  let with_probe = run ~probe:true in
  check "same schedule with and without a probe" true
    (with_probe = run ~probe:false)

(* --- wire codec --- *)

(* structural round-trip, plus byte stability: encoding the decode of an
   encoding must reproduce the same bytes (the digest layer relies on it) *)
let roundtrip r =
  let wire = Report.to_wire r in
  match Report.of_wire wire with
  | Error e -> Alcotest.fail ("of_wire failed: " ^ e)
  | Ok r' ->
      check "round-trips structurally" true (r = r');
      Alcotest.(check string) "byte-stable" wire (Report.to_wire r')

let test_wire_every_fkind () =
  List.iter
    (fun fkind ->
      roundtrip (Report.make ~at:(Time.sec 2) ~checker_id:"c" ~fkind ());
      (* and with a location + op_desc attached *)
      roundtrip
        (Report.make ~at:(Time.ms 1) ~checker_id:"ck:x" ~fkind
           ~loc:(Wd_ir.Loc.make ~func:"f" ~path:[ 0; 3; 1 ] ~uid:7)
           ~op_desc:"disk_write(d)" ()))
    [
      Report.Hang;
      Report.Slow;
      Report.Error_sig "io failure: disk";
      Report.Assert_fail "x <> y";
      Report.Checker_crash "Division_by_zero";
    ]

let test_wire_every_value_shape () =
  let shapes =
    [
      VUnit;
      VBool true;
      VBool false;
      VInt 42;
      VInt (-7);
      VStr "plain";
      VStr "with:delims;and|magic";
      VStr "";
      VBytes (Bytes.of_string "\x00\xffraw");
      VList [ VInt 1; VStr "two"; VList [ VUnit ] ];
      VPair (VInt 1, VPair (VStr "a", VBool false));
      VMap [ ("k", VInt 9); ("nested", VMap [ ("x", VList [] ) ]) ];
    ]
  in
  (* each shape alone, then all together in one payload *)
  List.iteri
    (fun i v ->
      roundtrip
        (Report.make ~at:(Int64.of_int i) ~checker_id:"shape" ~fkind:Report.Slow
           ~payload:[ ("v", v) ] ()))
    shapes;
  roundtrip
    (Report.make ~at:(Time.sec 9) ~checker_id:"all" ~fkind:Report.Hang
       ~payload:(List.mapi (fun i v -> (Fmt.str "p%d" i, v)) shapes)
       ())

let test_wire_validated_and_errors () =
  (* validated survives the trip in all three states *)
  List.iter
    (fun validated ->
      let r = Report.make ~at:1L ~checker_id:"v" ~fkind:Report.Hang () in
      r.Report.validated <- validated;
      let wire = Report.to_wire r in
      match Report.of_wire wire with
      | Ok r' -> check "validated survives" true (r'.Report.validated = validated)
      | Error e -> Alcotest.fail e)
    [ None; Some true; Some false ];
  (* malformed inputs are rejected, not exceptions *)
  let bad w =
    match Report.of_wire w with Ok _ -> false | Error _ -> true
  in
  check "empty rejected" true (bad "");
  check "bad magic rejected" true (bad "NOPE|rest");
  check "truncated rejected" true
    (bad
       (String.sub
          (Report.to_wire (Report.make ~at:1L ~checker_id:"t" ~fkind:Report.Slow ()))
          0 12));
  check "trailing bytes rejected" true
    (bad
       (Report.to_wire (Report.make ~at:1L ~checker_id:"t" ~fkind:Report.Slow ())
       ^ "x"))

(* --- wire codec properties: round-trip and mutation fuzz ---

   The fleet plane ships reports as bytes and corroborates them by digest,
   so the codec must be byte-stable (encode is a canonical form) and
   injective (no two distinct wires decode to equal reports). Random
   reports check the first; random byte mutations check that the decoder
   either rejects or decodes to a report whose re-encoding reproduces the
   mutated bytes exactly — never a silent mis-decode. *)

let gen_wire_str = QCheck.Gen.(string_size ~gen:char (int_bound 12))

let gen_wire_value =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return VUnit;
              map (fun b -> VBool b) bool;
              map (fun i -> VInt i) int;
              map (fun s -> VStr s) gen_wire_str;
              map (fun s -> VBytes (Bytes.of_string s)) gen_wire_str;
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 1,
                map
                  (fun vs -> VList vs)
                  (list_size (int_bound 3) (self (n / 2))) );
              (1, map2 (fun a b -> VPair (a, b)) (self (n / 2)) (self (n / 2)));
              ( 1,
                map
                  (fun kvs -> VMap kvs)
                  (list_size (int_bound 3) (pair gen_wire_str (self (n / 2))))
              );
            ]))

let gen_wire_fkind =
  QCheck.Gen.(
    oneof
      [
        return Report.Hang;
        return Report.Slow;
        map (fun s -> Report.Error_sig s) gen_wire_str;
        map (fun s -> Report.Assert_fail s) gen_wire_str;
        map (fun s -> Report.Checker_crash s) gen_wire_str;
      ])

let gen_wire_report =
  QCheck.Gen.(
    map
      (fun ((at, checker_id, fkind), (loc, op_desc, payload, validated)) ->
        let r =
          Report.make ~at:(Int64.of_int at) ~checker_id ~fkind
            ?loc:
              (Option.map
                 (fun (func, path, uid) -> Wd_ir.Loc.make ~func ~path ~uid)
                 loc)
            ~op_desc ~payload ()
        in
        r.Report.validated <- validated;
        r)
      (pair
         (triple int gen_wire_str gen_wire_fkind)
         (quad
            (opt (triple gen_wire_str (list_size (int_bound 4) int) int))
            gen_wire_str
            (list_size (int_bound 4) (pair gen_wire_str gen_wire_value))
            (oneofl [ None; Some true; Some false ]))))

let arb_wire_report = QCheck.make gen_wire_report

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"random reports round-trip byte-stably" ~count:500
    arb_wire_report (fun r ->
      let wire = Report.to_wire r in
      match Report.of_wire wire with
      | Error _ -> false
      | Ok r' -> r' = r && String.equal (Report.to_wire r') wire)

let prop_wire_mutation =
  QCheck.Test.make
    ~name:"byte mutations rejected or decode to exactly the mutated bytes"
    ~count:2000
    QCheck.(
      make
        Gen.(triple gen_wire_report (int_bound 4096) (map Char.chr (int_bound 255))))
    (fun (r, pos, byte) ->
      let wire = Bytes.of_string (Report.to_wire r) in
      Bytes.set wire (pos mod Bytes.length wire) byte;
      let mutated = Bytes.to_string wire in
      match Report.of_wire mutated with
      | Error _ -> true
      | Ok r' -> String.equal (Report.to_wire r') mutated)

let prop_wire_truncation =
  QCheck.Test.make ~name:"every proper prefix is rejected" ~count:200
    QCheck.(make Gen.(pair gen_wire_report (int_bound 4096)))
    (fun (r, n) ->
      let wire = Report.to_wire r in
      let n = n mod String.length wire in
      match Report.of_wire (String.sub wire 0 n) with
      | Error _ -> true
      | Ok _ -> false)

let test_wire_canonical_numbers () =
  (* the decoder accepts only the encoder's canonical decimal form: OCaml's
     permissive int parsing (hex, octal, '_' separators, leading '+'/'0')
     would make distinct wires decode to equal reports *)
  let r = Report.make ~at:16L ~checker_id:"n" ~fkind:Report.Hang () in
  let wire = Report.to_wire r in
  check "canonical form decodes" true
    (match Report.of_wire wire with Ok _ -> true | Error _ -> false);
  let reject variant =
    (* the encoded [at] is the first field after the magic: "WDR1|16;" *)
    let mutated =
      "WDR1|" ^ variant
      ^ String.sub wire 8 (String.length wire - 8)
    in
    check (variant ^ " rejected") true
      (match Report.of_wire mutated with Ok _ -> false | Error _ -> true)
  in
  List.iter reject [ "0x10;"; "0o20;"; "0b10000;"; "1_6;"; "+16;"; "016;" ]

let () =
  Alcotest.run "wd_watchdog"
    [
      ("report", [ Alcotest.test_case "pp and kinds" `Quick test_report_pp ]);
      ( "wire codec",
        [
          Alcotest.test_case "every fkind round-trips" `Quick
            test_wire_every_fkind;
          Alcotest.test_case "every value shape round-trips" `Quick
            test_wire_every_value_shape;
          Alcotest.test_case "validated + malformed input" `Quick
            test_wire_validated_and_errors;
          Alcotest.test_case "canonical decimals only" `Quick
            test_wire_canonical_numbers;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_wire_mutation;
          QCheck_alcotest.to_alcotest prop_wire_truncation;
        ] );
      ( "wcontext",
        [
          Alcotest.test_case "readiness" `Quick test_wcontext_readiness;
          Alcotest.test_case "no params = ready" `Quick
            test_wcontext_empty_params_always_ready;
          Alcotest.test_case "replication" `Quick test_wcontext_replication;
          Alcotest.test_case "staleness" `Quick test_wcontext_staleness;
          Alcotest.test_case "unknown hook" `Quick test_wcontext_unknown_hook_ignored;
          QCheck_alcotest.to_alcotest prop_wcontext_cow_matches_eager;
        ] );
      ( "driver",
        [
          Alcotest.test_case "periodic scheduling" `Quick
            test_driver_schedules_periodically;
          Alcotest.test_case "failure reports + dedup" `Quick
            test_driver_reports_failures;
          Alcotest.test_case "timeout -> hang report" `Quick
            test_driver_timeout_becomes_hang_report;
          Alcotest.test_case "survives checker crash" `Quick
            test_driver_survives_checker_crash;
          Alcotest.test_case "skip is not failure" `Quick test_driver_skip_not_a_failure;
          Alcotest.test_case "confirmation debounce" `Quick
            test_driver_confirmations_debounce;
          Alcotest.test_case "adaptive slow" `Quick test_driver_adaptive_slow;
          Alcotest.test_case "stop" `Quick test_driver_stop;
          Alcotest.test_case "policy validation suppression" `Quick
            test_policy_validation_suppression;
          Alcotest.test_case "add checker while running" `Quick
            test_driver_add_checker_while_running;
          Alcotest.test_case "benchmark scheduling contract" `Quick
            test_driver_schedule_contract;
          Alcotest.test_case "slow_elapsed override" `Quick
            test_driver_slow_elapsed_override;
          Alcotest.test_case "first_report_where" `Quick
            test_driver_first_report_where;
          Alcotest.test_case "validation marks reports" `Quick
            test_validation_marks_reports;
        ] );
    ]
