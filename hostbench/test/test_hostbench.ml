(* Tests of the benchmark's own pieces: percentile selection, the
   normaliser, metric names, and the shape of the JSON it prints. *)

open Hostbench_core

(* --- a minimal JSON reader, enough to check shapes --- *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool

let parse s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \n\t\r" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then (incr pos; Buffer.add_char b (peek ()))
      else Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            if peek () = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        let rec items acc =
          let v = value () in
          ws ();
          if peek () = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | _ ->
        let start = !pos in
        while !pos < String.length s && String.contains "0123456789+-.eE" (peek ()) do
          incr pos
        done;
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  ws ();
  if !pos <> String.length s then failwith "trailing input";
  v

let keys = function Obj kv -> List.map fst kv | _ -> Alcotest.fail "not an object"
let field k = function Obj kv -> List.assoc k kv | _ -> Alcotest.fail "not an object"

(* --- percentiles --- *)

let test_percentile () =
  let xs = List.map float_of_int [ 5; 1; 4; 2; 3; 10; 9; 8; 7; 6 ] in
  let p q = Stats.percentile xs q in
  Alcotest.(check (float 0.)) "p50 of 1..10 is the 5th" 5. (p 0.5);
  Alcotest.(check (float 0.)) "p90 of 1..10 is the 9th" 9. (p 0.9);
  Alcotest.(check (float 0.)) "p99 of 1..10 is the 10th" 10. (p 0.99);
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (p 0.);
  Alcotest.(check (float 0.)) "p100 is the maximum" 10. (p 1.);
  Alcotest.(check (float 0.)) "one sample" 7. (Stats.percentile [ 7. ] 0.9);
  Alcotest.(check (float 0.)) "median of 3" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check int) "rank clamps low" 0 (Stats.rank 10 0.);
  Alcotest.(check int) "rank clamps high" 9 (Stats.rank 10 2.);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [] 0.5))

(* --- the normaliser --- *)

let test_normaliser () =
  let raw = [| 8e6; 9e6; 7.5e6; 8.2e6; 12e6; 8.1e6 |] in
  let kernel = [| 1.5e6; 1.6e6; 1.4e6; 1.55e6; 2.2e6; 1.5e6 |] in
  let normalised raw kernel =
    let ks = Refk.smooth kernel in
    Array.mapi (fun i r -> Refk.normalise ~raw_ns:r ~kernel_ns:ks.(i)) raw
  in
  let base = normalised raw kernel in
  let slow = normalised (Array.map (( *. ) 1.5) raw) (Array.map (( *. ) 1.5) kernel) in
  Array.iteri
    (fun i b ->
      Alcotest.(check (float 1e-6)) "1.5x host slowdown cancels" b slow.(i))
    base;
  Alcotest.(check (float 1e-9)) "nominal kernel leaves raw time" 3e6
    (Refk.normalise ~raw_ns:3e6 ~kernel_ns:Refk.nominal_ns);
  Alcotest.(check (array (float 0.)))
    "smooth drops a one-off spike and follows a lasting step"
    (Array.map float_of_int [| 1; 1; 1; 1; 1; 1; 1; 2; 2; 2; 2; 2; 2; 2; 2; 2 |])
    (Refk.smooth
       (Array.map float_of_int [| 1; 1; 1; 100; 1; 1; 1; 1; 2; 2; 2; 2; 2; 2; 2; 2 |]));
  let k = Refk.create () in
  Alcotest.(check bool) "kernel run takes time" true (Refk.run k > 0.)

(* --- metric names --- *)

let test_names () =
  let names =
    List.map (fun (n, _, _, _) -> n) Spec.end_to_end
    @ List.map (fun (n, _, _) -> n) Spec.per_layer
    @ List.map fst Spec.workloads
  in
  List.iter
    (fun n -> Alcotest.(check bool) ("valid: " ^ n) true (Metric.valid_name n))
    names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid: " ^ n) false (Metric.valid_name n))
    [ ""; "_lead"; ".lead"; "with space"; "µs"; "a/b"; String.make 65 'a' ];
  Alcotest.(check bool) "setup_s is an end-to-end metric" true
    (List.exists
       (fun (n, u, b, _) -> n = "setup_s" && u = "s" && b = Spec.Lower)
       Spec.end_to_end);
  List.iter
    (fun (n, _, _, bound) ->
      Alcotest.(check bool)
        (n ^ " bound in (0, 0.25]")
        true
        (bound > 0. && bound <= 0.25))
    Spec.end_to_end

(* --- JSON shapes --- *)

let test_result_json () =
  let line =
    Metric.result_line ~correct:true ~attempted:1000 ~failed:0
      [ Metric.make "latency_ms" "ms" 1.2034; Metric.make "setup_s" "s" (0.1 +. 0.7127) ]
  in
  let j = parse line in
  Alcotest.(check (list string)) "top-level keys"
    [ "correct"; "attempted"; "failed"; "metrics" ] (keys j);
  Alcotest.(check bool) "correct" true (field "correct" j = Bool true);
  Alcotest.(check bool) "attempted" true (field "attempted" j = Num 1000.);
  let m = field "metrics" j in
  Alcotest.(check (list string)) "metric keys" [ "latency_ms"; "setup_s" ] (keys m);
  Alcotest.(check (list string)) "value and unit" [ "value"; "unit" ]
    (keys (field "latency_ms" m));
  Alcotest.(check bool) "every digit kept" true
    (field "value" (field "setup_s" m) = Num (0.1 +. 0.7127));
  Alcotest.check_raises "repeated names refused"
    (Invalid_argument "Metric.result_line: duplicate metric name") (fun () ->
      ignore
        (Metric.result_line ~correct:true ~attempted:1 ~failed:0
           [ Metric.make "a" "s" 1.; Metric.make "a" "s" 2. ]));
  Alcotest.check_raises "non-finite refused"
    (Invalid_argument "Metric.make: a is not finite") (fun () ->
      ignore (Metric.make "a" "s" Float.nan))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_manifest () =
  let text = Spec.manifest () in
  Alcotest.(check string) "BENCHMARK.json is Spec.manifest ()" text
    (read_file "../../BENCHMARK.json");
  let j = parse text in
  Alcotest.(check (list string)) "manifest keys"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    (keys j);
  let items k = match field k j with Arr l -> l | _ -> Alcotest.fail k in
  List.iter
    (fun w -> Alcotest.(check (list string)) "workload keys" [ "name"; "why" ] (keys w))
    (items "workloads");
  List.iter
    (fun m ->
      Alcotest.(check (list string)) "end_to_end keys"
        [ "name"; "unit"; "better"; "bound" ] (keys m))
    (items "end_to_end");
  List.iter
    (fun m ->
      Alcotest.(check (list string)) "per_layer keys" [ "name"; "unit"; "better" ] (keys m))
    (items "per_layer");
  List.iter
    (fun (_, why) -> Alcotest.(check bool) "why fits one line" true
        (String.length why <= 200 && not (String.contains why '\n')))
    Spec.workloads

let () =
  Alcotest.run "hostbench"
    [
      ("stats", [ Alcotest.test_case "percentile selection" `Quick test_percentile ]);
      ( "refk",
        [ Alcotest.test_case "normaliser cancels a slowdown" `Quick test_normaliser ] );
      ("metric", [ Alcotest.test_case "name validity" `Quick test_names ]);
      ( "json",
        [
          Alcotest.test_case "result line shape" `Quick test_result_json;
          Alcotest.test_case "manifest shape" `Quick test_manifest;
        ] );
    ]
