(* Shared measuring tools: clocks, order statistics, peak RSS, reading a
   compile's trace tree, and the result every workload returns. *)

module Trace = Gcd2_util.Trace
module Rng = Gcd2_util.Rng
module Stats = Gcd2_util.Stats

let now = Trace.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [f ()] with its wall time and the CPU time (user + system) this
   process spent on it.  CPU time leaves out the time the hypervisor gave
   this VM's CPUs to other guests (steal), which wall time does not. *)
let timed_cpu f =
  let c0 = Sys.time () in
  let v, wall = timed f in
  (v, wall, Sys.time () -. c0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let sum = List.fold_left ( +. ) 0.0

(* Group [(key, sample)] pairs by key, in key order. *)
let group pairs =
  let keys = List.sort_uniq compare (List.map fst pairs) in
  List.map (fun k -> (k, List.filter_map (fun (k', x) -> if k = k' then Some x else None) pairs)) keys

(* [xs] in a seeded random order. *)
let shuffle rng xs =
  List.map (fun x -> (Rng.int rng 1_000_000, x)) xs
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* Sum over operation kinds of each kind's median wall time: the cost of
   one pass over the workload's operations, robust to single outliers. *)
let sum_of_medians pairs = sum (List.map (fun (_, xs) -> Stats.p50 xs) (group pairs))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

(* Peak resident set (VmHWM) of process [pid] in MB, from procfs. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' text)

let self_peak_rss_mb () = peak_rss_mb "self"

(* CPU seconds (user + system, all threads) process [pid] has used, from
   fields 14 and 15 of /proc/PID/stat, in clock ticks of 1/100 s (the
   fixed USER_HZ of Linux). *)
let proc_cpu_s pid =
  let stat = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* the command name in field 2 may hold spaces: split after it, so
     field 3 lands at index 0 *)
  let after = String.rindex stat ')' + 2 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub stat after (String.length stat - after))) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

(* ------------------------------------------------------------------ *)
(* Reading a compile's trace tree                                      *)

let rec spans (s : Trace.span) = s :: List.concat_map spans s.Trace.children

(* The first span named [name] directly under the root, if any. *)
let top (t : Trace.t) name =
  List.find_opt (fun (s : Trace.span) -> s.Trace.span_name = name) (Trace.root t).Trace.children

(* The spans named [name] inside [s], each at its outermost occurrence
   (a span nested in a same-named span is counted once, with its parent). *)
let rec outermost name (s : Trace.span) =
  List.concat_map
    (fun (c : Trace.span) -> if c.Trace.span_name = name then [ c ] else outermost name c)
    s.Trace.children

let seconds_in s name = sum (List.map (fun (c : Trace.span) -> c.Trace.seconds) (outermost name s))
let calls_in s name = List.fold_left (fun acc (c : Trace.span) -> acc + c.Trace.calls) 0 (outermost name s)

let counter_in (s : Trace.span) key =
  List.fold_left
    (fun acc (x : Trace.span) ->
      acc + Option.value ~default:0 (List.assoc_opt key x.Trace.counters))
    0 (spans s)

(* Wall time of a span not covered by its direct children. *)
let self_seconds (s : Trace.span) =
  s.Trace.seconds -. sum (List.map (fun (c : Trace.span) -> c.Trace.seconds) s.Trace.children)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type result = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float) list;  (** name -> value *)
}

let result () = { correct = true; attempted = 0; failed = 0; metrics = [] }

let metric r name value = r.metrics <- r.metrics @ [ (name, value) ]

(* A correctness check: a failed check marks the run incorrect and says
   why on stderr, but the run goes on so every check is reported. *)
let check r cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        r.correct <- false;
        Printf.eprintf "perfbench: CHECK FAILED: %s\n%!" msg
      end)
    fmt

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "perfbench: %s\n%!" s) fmt

(* ------------------------------------------------------------------ *)
(* Scratch space inside the working directory                          *)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o700 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Where a run keeps its stores and sockets: relative to the working
   directory, so a Unix socket path inside it stays short. *)
let work_root = Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ()))

let remove_work () =
  rm_rf work_root;
  try Sys.rmdir (Filename.dirname work_root) with Sys_error _ -> ()

(* A fresh directory under [work_root], removed however the workload ends. *)
let with_work_dir name f =
  let dir = Filename.concat work_root name in
  mkdir_p dir;
  Fun.protect ~finally:remove_work (fun () -> f dir)

(* One stderr line per operation kind: samples, median, min and max. *)
let log_kinds ~unit ~scale pairs =
  List.iter
    (fun (k, xs) ->
      log "  %-22s n=%-4d median %.4g %s (min %.4g, max %.4g)" k (List.length xs)
        (scale *. Stats.p50 xs) unit (scale *. Stats.minf xs) (scale *. Stats.maxf xs))
    (group pairs)

(* Processes this run started, for [kill_children]. *)
let children : int list ref = ref []

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children

(* End the run, and every process it started, when it is interrupted or
   has not finished within [seconds]: a hung daemon must not hang the
   benchmark, nor outlive it. *)
let start_watchdog seconds =
  let give_up code =
    kill_children ();
    remove_work ();
    Unix._exit code
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> give_up 130)))
    [ Sys.sigint; Sys.sigterm ];
  ignore
    (Thread.create
       (fun () ->
         Thread.delay seconds;
         log "still running after %.0f s: giving up" seconds;
         give_up 3)
       ())

