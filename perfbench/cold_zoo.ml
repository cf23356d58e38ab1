(* cold-zoo: every zoo model plus one small-budget tuned compile, each
   compiled cold into an empty store, the way a fresh
   `gcd2 compile --cache-dir` process would run it.  This workload carries
   the write side of the store and all of build-costs (emit, pack, memo,
   tuner) and select; it never times a warm read and never runs the VM. *)

module Compiler = Gcd2.Compiler
module Zoo = Gcd2_models.Zoo
module Serve = Gcd2_serve.Serve
module Memo = Gcd2_util.Memo
module Rng = Gcd2_util.Rng
module Problem = Gcd2_layout.Problem
module Graphcost = Gcd2_cost.Graphcost
module Flops = Gcd2_graph.Flops
module Graph = Gcd2_graph.Graph
module Artifact = Gcd2_store.Artifact
module Cache = Gcd2_store.Cache
module Trace = Gcd2_util.Trace
open Common

(* The tuned compile (ROADMAP open item 1): a small budget on a small
   model, so that it costs about as much as one large untuned compile. *)
let tune_model = "TinyBERT"
let tune_spec = "4"

type op = { label : string; build : unit -> Graph.t; config : Compiler.config }

let ops () =
  let tune =
    match Gcd2_codegen.Autotune.of_string tune_spec with
    | Ok t -> t
    | Error e -> failwith e
  in
  let tuned =
    match Serve.config_of ~tune ~framework:"gcd2" ~selection:"13" () with
    | Ok c -> c
    | Error d -> failwith (Fmt.str "%a" Gcd2.Diag.pp d)
  in
  List.map
    (fun (e : Zoo.entry) -> { label = e.Zoo.name; build = e.Zoo.build; config = Compiler.default })
    Zoo.all
  @ [ { label = tune_model ^ " tune=" ^ tune_spec; build = (fun () -> Zoo.build tune_model);
        config = tuned } ]

(* Per-layer figures of one cold compile, read from the trace it carries. *)
let layers (c : Compiler.compiled) =
  let t = c.Compiler.trace in
  let secs name = match top t name with Some s -> s.Trace.seconds | None -> 0.0 in
  let bc = top t "build-costs" in
  let in_bc f = match bc with Some s -> f s | None -> 0.0 in
  (* emitter time without the packing nested inside it *)
  let emit_self s =
    List.concat_map (fun n -> outermost n s) [ "matmul-emit"; "eltwise-emit" ]
    |> List.map (fun (e : Trace.span) -> e.Trace.seconds -. seconds_in e "pack")
    |> sum
  in
  let store = top t "cache-store" in
  let hits = Trace.counter t "memo-hits" and misses = Trace.counter t "memo-misses" in
  [
    ("graph.rewrites_ms", 1000.0 *. (secs "eliminate-identity-reshapes" +. secs "fuse-activations"));
    (* on a cold miss, cache-lookup is the request fingerprint plus one
       existence probe *)
    ("store.fingerprint_ms", 1000.0 *. secs "cache-lookup");
    ("cost.build_costs_s", secs "build-costs");
    ("codegen.emit_s", in_bc emit_self);
    ("sched.pack_s", in_bc (fun s -> seconds_in s "pack"));
    ("sched.pack_calls", in_bc (fun s -> float_of_int (calls_in s "pack")));
    ("cost.memo_hits", float_of_int hits);
    ("cost.memo_lookups", float_of_int (hits + misses));
    ("codegen.tune_s", seconds_in (Trace.root t) "autotune");
    ("codegen.tune_costed", float_of_int (Trace.counter t "tune-costed"));
    ("codegen.tune_pruned", float_of_int (Trace.counter t "tune-pruned"));
    ("layout.select_ms", 1000.0 *. secs (Fmt.str "select:%a" Compiler.pp_selection c.Compiler.config.Compiler.selection));
    ("layout.partitions", float_of_int (Trace.counter t "partitions"));
    ("sched.packets", in_bc (fun s -> float_of_int (counter_in s "packets")));
    ("sched.stalls", in_bc (fun s -> float_of_int (counter_in s "stalls")));
    ("store.store_s", match store with Some s -> s.Trace.seconds | None -> 0.0);
    ("store.store_pack_s", match store with Some s -> s.Trace.seconds -. self_seconds s | None -> 0.0);
    ("store.write_ms", match store with Some s -> 1000.0 *. self_seconds s | None -> 0.0);
  ]

(* KB of the packed programs inside the stored artifact of [op] on [g]. *)
let programs_kb ~dir op g =
  let digest = Compiler.fingerprint op.config g in
  match Artifact.load ~expect_digest:digest ~path:(Cache.entry_path dir digest) () with
  | Ok (art, _) -> float_of_int (String.length (Marshal.to_string art.Artifact.programs [])) /. 1024.0
  | Error _ -> 0.0

let same_bits a b = Marshal.to_string a [] = Marshal.to_string b []

let run ~seed ~seconds ~trace =
  let r = result () in
  let ops = ops () in
  (* Set-up is only the graph builds; it is repeated and the median of
     its CPU time kept, since one pass takes a few milliseconds.  No GC
     runs between passes: a full GC before each one narrowed the spread
     but raised the peak RSS of the whole run by 5 to 100 MB. *)
  let build () = List.map (fun op -> (op, op.build ())) ops in
  let graphs = build () in
  let setup_s =
    Stats.p50
      (List.init 25 (fun _ ->
           let _, _, cpu = timed_cpu build in
           cpu))
  in
  let rng = Rng.create seed in
  let times = ref [] and cpu_times = ref [] and layer_rows = ref [] in
  let dsp = ref 0.0 and artifact = ref 0.0 and programs = ref 0.0 in
  let t_start = now () in
  with_work_dir "cold-zoo" @@ fun work ->
  let round = ref 0 in
  while !round = 0 || now () -. t_start < seconds do
    incr round;
    let dir = Filename.concat work (Printf.sprintf "store-%d" !round) in
    (* seeded order of the compiles within a round *)
    let order = shuffle rng graphs in
    let round_s = ref 0.0 in
    List.iter
      (fun (op, g) ->
        r.attempted <- r.attempted + 1;
        Memo.clear_all ();
        Gc.full_major ();
        match timed_cpu (fun () -> Compiler.compile_result ~config:op.config ~cache_dir:dir ~jobs:1 g) with
        | Error d, _, _ ->
          r.failed <- r.failed + 1;
          log "%s: compile failed: %s" op.label (Fmt.str "%a" Gcd2.Diag.pp d)
        | Ok c, s, cpu ->
          times := (op.label, s) :: !times;
          cpu_times := (op.label, cpu) :: !cpu_times;
          round_s := !round_s +. s;
          if trace then layer_rows := List.map (fun (k, v) -> ((op.label, k), v)) (layers c) @ !layer_rows;
          let report = c.Compiler.report in
          if !round = 1 then begin
            dsp := !dsp +. report.Graphcost.cycles;
            artifact := !artifact +. float_of_int (Trace.counter c.Compiler.trace "cache-bytes");
            if trace then programs := !programs +. programs_kb ~dir op g
          end;
          check r (not (Compiler.from_cache c)) "%s: cold compile read a cache entry" op.label;
          check r
            (Problem.total_cost c.Compiler.cost.Graphcost.problem c.Compiler.assignment
            = report.Graphcost.cycles)
            "%s: reported cycles differ from Problem.total_cost" op.label;
          check r
            (report.Graphcost.macs >= Flops.total_macs c.Compiler.graph)
            "%s: plans cover fewer MACs than the graph" op.label;
          (match Compiler.compile_result ~config:op.config ~cache_dir:dir ~jobs:1 g with
          | Ok h ->
            check r (Compiler.from_cache h) "%s: second compile missed the cache" op.label;
            check r
              (h.Compiler.assignment = c.Compiler.assignment && same_bits h.Compiler.report report)
              "%s: cache hit differs from its cold compile" op.label
          | Error d -> check r false "%s: cache hit failed: %s" op.label (Fmt.str "%a" Gcd2.Diag.pp d)))
      order;
    log "round %d: %.3f s of compiles" !round !round_s;
    rm_rf dir
  done;
  let n = List.length !times in
  let timed_s = sum (List.map snd !times) in
  log "cold-zoo: %d rounds, %d compiles in %.1f s" !round n timed_s;
  log_kinds ~unit:"s" ~scale:1.0 !times;
  let cpu_s = sum_of_medians !cpu_times in
  if not trace then begin
    metric r "setup_s" setup_s;
    metric r "cpu_s" cpu_s;
    metric r "peak_rss_mb" (self_peak_rss_mb ());
    metric r "dsp_mcycles" (!dsp /. 1e6)
  end
  else begin
    (* one round's worth of each layer: the per-compile median, summed *)
    let layer k =
      sum_of_medians
        (List.filter_map (fun ((l, k'), v) -> if k = k' then Some (l, v) else None) !layer_rows)
    in
    List.iter
      (fun k -> if k <> "cost.memo_hits" && k <> "cost.memo_lookups" then metric r k (layer k))
      (List.sort_uniq compare (List.map (fun ((_, k), _) -> k) !layer_rows));
    metric r "cost.memo_hit_ratio" (layer "cost.memo_hits" /. layer "cost.memo_lookups");
    metric r "store.artifact_kb" (!artifact /. 1024.0);
    metric r "store.programs_kb" !programs;
    metric r "wall.work_s" (sum_of_medians !times);
    metric r "wall.ops_per_s" (float_of_int n /. timed_s);
    metric r "trace.cpu_s" cpu_s
  end;
  r
