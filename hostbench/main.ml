(* Host-cost benchmark runner.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
     main.exe --manifest            # print BENCHMARK.json

   One workload per process, on one domain. [--trace 0] measures the
   end-to-end metrics; [--trace 1] runs the traced, deploy-split run that
   gives the per-layer metrics. The last stdout line is the JSON result;
   any failed output check exits 1. *)

module Spec = Hostbench_core.Spec
module Metric = Hostbench_core.Metric

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref Spec.run_seconds in
  let trace = ref 0 and manifest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the inputs");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--manifest", Arg.Set manifest, " print BENCHMARK.json and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !manifest then (print_string (Spec.manifest ()); exit 0);
  if not (List.mem_assoc !workload Spec.workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let traced = !trace = 1 in
  let kernel = Hostbench_core.Refk.create () in
  ignore (Hostbench_core.Refk.run kernel);
  let seconds = float_of_int (max 1 !seconds) in
  let seed = !seed in
  let run =
    match (!workload, traced) with
    | "zk-closed", false -> Loadrun.e2e ~kernel ~seed ~seconds Loadrun.zk_closed
    | "zk-closed", true -> Loadrun.traced ~kernel ~seed ~seconds Loadrun.zk_closed
    | "cstore-open-reads", false ->
        Loadrun.e2e ~kernel ~seed ~seconds Loadrun.cstore_open_reads
    | "cstore-open-reads", true ->
        Loadrun.traced ~kernel ~seed ~seconds Loadrun.cstore_open_reads
    | _, false -> Sweeprun.e2e ~kernel ~seed ~seconds
    | _, true -> Sweeprun.traced ~kernel ~seed ~seconds
  in
  let attempted, failed, values =
    match run with
    | r -> r
    | exception e ->
        Printf.printf "ERROR: %s\n%!" (Printexc.to_string e);
        exit 1
  in
  let defs =
    if traced then List.map (fun (n, u, _) -> (n, u)) Spec.per_layer
    else List.map (fun (n, u, _, _) -> (n, u)) Spec.end_to_end
  in
  Common.check "metric set matches BENCHMARK.json"
    (List.sort compare (List.map fst values) = List.sort compare (List.map fst defs))
    "";
  Common.check "no operation failed" (failed = 0)
    (Printf.sprintf "%d of %d" failed attempted);
  let metrics =
    List.filter_map
      (fun (name, unit_) ->
        Option.map
          (fun v ->
            Common.show name unit_ v;
            Metric.make name unit_ v)
          (List.assoc_opt name values))
      defs
  in
  let correct = Common.all_checks_passed () in
  print_endline (Metric.result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1
