(* vm-infer: three compiled models run again and again on the simulated
   DSP through Runtime.run_with_stats.  They use the VM in three ways:
   MobileNet-V3 is large GEMMs with host-staged depthwise convolutions,
   TinyBERT runs attention row kernels, and Conformer is hundreds of tiny
   nodes where per-node overhead dominates.  WDSR-b is left out: its VM
   inference needs more memory than an 8 GB machine has.  No store or
   daemon work happens here. *)

module Compiler = Gcd2.Compiler
module Runtime = Gcd2.Runtime
module Zoo = Gcd2_models.Zoo
module Interp = Gcd2_kernels.Interp
module T = Gcd2_tensor.Tensor
module Rng = Gcd2_util.Rng
module Graph = Gcd2_graph.Graph
module Op = Gcd2_graph.Op
module Plan = Gcd2_cost.Plan
module Opcost = Gcd2_cost.Opcost
module Graphcost = Gcd2_cost.Graphcost
open Common

(* (model, sequence bucket): the sequence models run at their small
   32-token bucket; the seed picks a length inside it. *)
let models = [ ("MobileNet-V3", None); ("TinyBERT", Some 32); ("Conformer", Some 32) ]

type model = {
  name : string;
  compiled : Compiler.compiled;
  inputs : (int * T.t) list;
  reference : Digest.t array;  (** of Interp.run on the compiled graph *)
  first_run_s : float;
}

(* One digest per node output.  The checks compare these, so the run
   never holds a second copy of every activation beside the live one. *)
let digests (outs : T.t array) =
  Array.map (fun (t : T.t) -> Digest.string (Marshal.to_string (t.T.dims, t.T.data) [])) outs

let input_nodes g =
  Graph.fold
    (fun acc (n : Graph.node) -> match n.Graph.op with Op.Input { shape } -> (n.Graph.id, shape) :: acc | _ -> acc)
    [] g
  |> List.rev

let non_input_nodes g =
  Graph.fold (fun acc (n : Graph.node) -> match n.Graph.op with Op.Input _ -> acc | _ -> acc + 1) 0 g

(* Does the runtime stage [node] on the host?  Mirrors the dispatch of
   Runtime.run_with_stats using only public data (the chosen plan, the
   compile options and the operand shapes); [host_ms] logs when the count
   disagrees with the runtime's own. *)
let host_staged (c : Compiler.compiled) (outs : T.t array) (node : Graph.node) =
  let options = c.Compiler.config.Compiler.opcost in
  let plan =
    c.Compiler.cost.Graphcost.plans.(node.Graph.id).(c.Compiler.assignment.(node.Graph.id))
  in
  let attn = options.Opcost.attn_kernels in
  match node.Graph.op with
  | Op.Input _ -> false
  | Op.Matmul _ | Op.Conv2d _ -> plan.Plan.simd = None
  | Op.Batch_matmul _ -> not (attn && plan.Plan.simd <> None && plan.Plan.unroll <> None)
  | Op.Softmax | Op.Layer_norm -> not attn
  | Op.Add | Op.Sub | Op.Mul -> (
    match node.Graph.inputs with
    | [ a; b ] ->
      let a = outs.(a) and b = outs.(b) in
      let na = T.numel a and nb = T.numel b in
      not (a.T.dims = b.T.dims || (attn && nb < na && na mod nb = 0))
    | _ -> true)
  | (Op.Pow _ | Op.Relu | Op.Relu6 | Op.Hard_swish | Op.Sigmoid | Op.Tanh | Op.Gelu) as op ->
    Interp.unary_spec op = None
  | _ -> true

(* Host time of one inference, measured from outside: Interp.eval_node on
   every host-staged node, plus the Interp.im2col gather that stages each
   convolution the VM runs.  Operands come from Interp.run, computed
   again here, outside the clock. *)
let host_ms (m : model) =
  let c = m.compiled in
  let g = c.Compiler.graph in
  let outs = Interp.run g ~inputs:m.inputs in
  let hosts = ref 0 in
  let secs =
    Graph.fold
      (fun acc (node : Graph.node) ->
        let args = List.map (fun i -> outs.(i)) node.Graph.inputs in
        if host_staged c outs node then begin
          incr hosts;
          acc +. snd (timed (fun () -> Interp.eval_node node args))
        end
        else
          match node.Graph.op with
          | Op.Conv2d { kh; kw; stride; pad; _ } ->
            acc +. snd (timed (fun () -> Interp.im2col (List.hd args) ~kh ~kw ~stride ~pad))
          | _ -> acc)
      0.0 g
  in
  (!hosts, 1000.0 *. secs)

(* Compile each model, weight it and run it once.  Set-up time is the CPU
   time of those steps; the reference each first inference is checked
   against is computed once, outside every clock. *)
let setup ~seed r =
  let rng = Rng.create seed in
  let cpu = ref 0.0 in
  let models =
    List.mapi
      (fun i (name, bucket) ->
        (* as before each timed inference: the peak RSS is then one
           inference's, not that plus the garbage of the one before *)
        Gc.full_major ();
        let (compiled, inputs, outs, first_run_s), _, c =
          timed_cpu (fun () ->
              (* a seeded length inside the bucket builds the bucket's graph *)
              let seq = Option.map (fun b -> (b / 2) + 1 + Rng.int rng (b / 2)) bucket in
              let g = Zoo.with_random_weights ~seed:((seed * 7) + i) (Zoo.build ?seq name) in
              let compiled = Compiler.compile ~jobs:1 g in
              let inputs =
                List.map (fun (id, shape) -> (id, T.random rng shape)) (input_nodes compiled.Compiler.graph)
              in
              let (outs, stats), first_run_s =
                timed (fun () -> Runtime.run_with_stats compiled ~inputs)
              in
              check r
                (stats.Runtime.vm_nodes + stats.Runtime.host_nodes
                = non_input_nodes compiled.Compiler.graph)
                "%s: vm.nodes + vm.host_nodes is not the number of non-input nodes" name;
              (compiled, inputs, outs, first_run_s))
        in
        cpu := !cpu +. c;
        let first = digests outs in
        Gc.full_major ();
        let reference = digests (Interp.run compiled.Compiler.graph ~inputs) in
        check r (first = reference) "%s: first inference differs from Interp.run" name;
        { name; compiled; inputs; reference; first_run_s })
      models
  in
  (models, !cpu)

let run ~seed ~seconds ~trace =
  let r = result () in
  let models, setup_s = setup ~seed r in
  let rng = Rng.create (seed + 1) in
  let times = ref [] and cpu_times = ref [] in
  let cycles = ref 0 and nodes = ref 0 and hosts = ref 0 in
  let rounds = ref 0 and t_start = now () in
  while !rounds = 0 || now () -. t_start < seconds do
    incr rounds;
    List.iter
      (fun m ->
        r.attempted <- r.attempted + 1;
        Gc.full_major ();
        match timed_cpu (fun () -> Runtime.run_with_stats m.compiled ~inputs:m.inputs) with
        | exception e ->
          r.failed <- r.failed + 1;
          log "%s: inference failed: %s" m.name (Printexc.to_string e)
        | (outs, stats), s, cpu ->
          times := (m.name, s) :: !times;
          cpu_times := (m.name, cpu) :: !cpu_times;
          if !rounds = 1 then begin
            cycles := !cycles + stats.Runtime.vm_cycles;
            nodes := !nodes + stats.Runtime.vm_nodes;
            hosts := !hosts + stats.Runtime.host_nodes
          end;
          check r (digests outs = m.reference) "%s: inference differs from Interp.run" m.name)
      (shuffle rng models)
  done;
  let n = List.length !times and timed_s = sum (List.map snd !times) in
  log "vm-infer: %d rounds, %d inferences in %.1f s" !rounds n timed_s;
  log_kinds ~unit:"s" ~scale:1.0 !times;
  let cpu_s = sum_of_medians !cpu_times in
  if not trace then begin
    metric r "setup_s" setup_s;
    metric r "cpu_s" cpu_s;
    metric r "peak_rss_mb" (self_peak_rss_mb ());
    metric r "dsp_mcycles"
      (sum (List.map (fun m -> m.compiled.Compiler.report.Graphcost.cycles) models) /. 1e6)
  end
  else begin
    let host = List.map host_ms models in
    let staged = List.fold_left (fun acc (h, _) -> acc + h) 0 host in
    if staged <> !hosts then
      log "vm.host_ms covers %d host-staged nodes, the runtime counted %d" staged !hosts;
    metric r "vm.cycles" (float_of_int !cycles);
    metric r "vm.nodes" (float_of_int !nodes);
    metric r "vm.host_nodes" (float_of_int !hosts);
    metric r "vm.mcycles_per_s"
      (float_of_int (!cycles * !rounds) /. 1e6 /. timed_s);
    metric r "vm.host_ms" (sum (List.map snd host));
    metric r "vm.first_run_s" (sum (List.map (fun m -> m.first_run_s) models));
    metric r "wall.work_s" (sum_of_medians !times);
    metric r "wall.ops_per_s" (float_of_int n /. timed_s);
    metric r "trace.cpu_s" cpu_s
  end;
  r
