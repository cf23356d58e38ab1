(* The benchmark's command line:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about [S] seconds of measured work (whole rounds
   of its operations, at least one), checks its outputs, and prints as the
   last line of stdout one JSON object: whether every check passed, how
   many operations were attempted and failed, and the metrics.  With
   [--trace 0] those are the end-to-end metrics; with [--trace 1] the
   per-layer ones, where a layer the workload does not run reads 0.
   Progress and failed checks go to stderr.  Exits non-zero, printing no
   result, when the arguments are wrong or the workload cannot run. *)

open Common

let workloads =
  [ ("cold-zoo", Cold_zoo.run); ("warm-daemon", Warm_daemon.run); ("vm-infer", Vm_infer.run) ]

(* The metrics of BENCHMARK.json with their units, in the order they
   print: the end-to-end ones, then the per-layer ones. *)
let end_to_end =
  [ ("setup_s", "s"); ("cpu_s", "s"); ("peak_rss_mb", "MB"); ("dsp_mcycles", "Mcycles") ]

let per_layer =
  [
    ("graph.rewrites_ms", "ms"); ("store.fingerprint_ms", "ms"); ("cost.build_costs_s", "s");
    ("codegen.emit_s", "s"); ("sched.pack_s", "s"); ("sched.pack_calls", "count");
    ("cost.memo_hit_ratio", "ratio"); ("codegen.tune_s", "s"); ("codegen.tune_costed", "count");
    ("codegen.tune_pruned", "count"); ("layout.select_ms", "ms"); ("layout.partitions", "count");
    ("sched.packets", "count"); ("sched.stalls", "count"); ("store.store_s", "s");
    ("store.store_pack_s", "s"); ("store.write_ms", "ms"); ("store.artifact_kb", "KB");
    ("store.programs_kb", "KB");
    ("models.resolve_ms", "ms"); ("store.read_ms", "ms"); ("store.decode_ms", "ms");
    ("cost.rebuild_ms", "ms"); ("store.bytes_per_hit_kb", "KB");
    ("daemon.req_p50_ms", "ms"); ("daemon.req_p99_ms", "ms");
    ("daemon.service_p50_ms", "ms"); ("daemon.service_p99_ms", "ms");
    ("daemon.wait_p50_ms", "ms"); ("daemon.wait_p99_ms", "ms");
    ("daemon.hits", "count"); ("daemon.compiles", "count");
    ("vm.cycles", "count"); ("vm.nodes", "count"); ("vm.host_nodes", "count");
    ("vm.mcycles_per_s", "Mcycles/s"); ("vm.host_ms", "ms"); ("vm.first_run_s", "s");
    ("wall.work_s", "s"); ("wall.ops_per_s", "1/s"); ("trace.cpu_s", "s");
  ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload (" ^ String.concat "|" (List.map fst workloads)
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (run, int "seed", float_of_int seconds, trace)

let json_of (r : result) metrics =
  let num v =
    if not (Float.is_finite v) then failwith "a metric is not a finite number"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let () =
  let run, seed, seconds, trace = parse_args () in
  (* a daemon closing a connection must not kill the measuring process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  start_watchdog 170.0;
  let r = run ~seed ~seconds ~trace in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name (end_to_end @ per_layer)) then failwith ("unknown metric " ^ name))
    r.metrics;
  (* a per-layer metric of a layer this workload does not run reads 0 *)
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name r.metrics with
        | Some v -> (name, v, unit)
        | None when trace -> (name, 0.0, unit)
        | None -> failwith ("missing metric " ^ name))
      (if trace then per_layer else end_to_end)
  in
  List.iter (fun (name, v, unit) -> Printf.eprintf "  %-26s %16.6g %s\n" name v unit) metrics;
  if r.attempted < 1 then failwith "no operation was attempted";
  print_endline (json_of r metrics)
