(* warm-daemon: a real `gcd2 daemon` process with one worker and a store
   that set-up filled through the daemon itself.  Two client connections
   (one thread each) run a closed loop of warm requests: keep-alive
   sessions of a few requests, seeded think times between them, every zoo
   model and `seq=` requests whose lengths share one bucket.  There are
   more connections than workers, so the wait behind a connection parked
   on a thinking client shows in the client latency.  The timed phase
   only reads the store: lookup, decode, rebuild. *)

module Compiler = Gcd2.Compiler
module Zoo = Gcd2_models.Zoo
module Client = Gcd2_daemon.Client
module Daemon = Gcd2_daemon.Daemon
module Protocol = Gcd2_daemon.Protocol
module Artifact = Gcd2_store.Artifact
module Cache = Gcd2_store.Cache
module Graphcost = Gcd2_cost.Graphcost
module Desc = Gcd2_devices.Desc
module Rng = Gcd2_util.Rng
open Common

let cli = "_build/default/bin/gcd2_cli.exe"

(* The sequence models are also requested with seeded lengths inside the
   32-token bucket: one stored artifact serves all of them. *)
let seq_bucket = 32
let seq_models = [ "TinyBERT"; "Conformer" ]

(* A request kind: what the latency medians and the lat check key on. *)
type kind = { key : string; model : string; bucket : int option }

let kinds =
  List.map (fun m -> { key = m; model = m; bucket = None }) Zoo.names
  @ List.map
      (fun m -> { key = Printf.sprintf "%s seq@%d" m seq_bucket; model = m; bucket = Some seq_bucket })
      seq_models

let line_of rng k =
  match k.bucket with
  | None -> k.model
  | Some b -> Printf.sprintf "%s seq=%d" k.model ((b / 2) + 1 + Rng.int rng (b / 2))

(* Session shape: 2-8 requests per connection, 0-6 ms of think time
   after each response. *)
let session_len rng = 2 + Rng.int rng 7
let think_s rng = Rng.float rng *. 0.006

type sample = { kind : string; client_ms : float; service_ms : float }

let ok_outcome (resp : Protocol.response) =
  match resp.Protocol.outcome with "ok" -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)

let spawn_daemon ~work =
  let socket = Filename.concat work "d.sock" in
  let log = Unix.openfile (Filename.concat work "daemon.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "daemon"; "--workers"; "1"; "--socket"; socket; "--cache-dir";
         Filename.concat work "store"; "--jobs"; "1"; "--stats-every"; "0"; "--quiet";
         "--janitor-interval-s"; "0" |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  (pid, Daemon.Unix_sock socket)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.05;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* One request on a fresh connection (health, stats, the store fill). *)
let one_shot addr line =
  let conn = Client.open_conn addr in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> Client.request conn line)

let wait_healthy addr =
  let deadline = now () +. 60.0 in
  let rec go () =
    match one_shot addr "health" with
    | Ok r when r.Protocol.outcome = "health" -> ()
    | _ | (exception Unix.Unix_error _) ->
      if now () > deadline then failwith "daemon did not become healthy";
      Unix.sleepf 0.02;
      go ()
  in
  go ()

(* The integer field [key=N] of the daemon's stats line; -1 if absent. *)
let stat_field addr key =
  match one_shot addr "stats" with
  | Ok { Protocol.msg = Some line; _ } ->
    List.find_map
      (fun tok ->
        match String.split_on_char '=' tok with
        | [ k; v ] when k = key -> int_of_string_opt v
        | _ -> None)
      (String.split_on_char ' ' line)
    |> Option.value ~default:(-1)
  | _ -> -1

(* ------------------------------------------------------------------ *)
(* The layers of a warm hit of kind [k], timed in this process against
   the daemon's store: resolve, read, decode, rebuild (seconds each), and
   the entry's size in bytes.                                           *)

let hit_layers ~store (k : kind) =
  let config = Compiler.default in
  let seq = k.bucket in
  let g, resolve_s = timed (fun () -> Zoo.build ?seq k.model) in
  let digest = Compiler.fingerprint config g in
  let path = Cache.entry_path store digest in
  let bytes, read_s = timed (fun () -> In_channel.with_open_bin path In_channel.input_all) in
  let art, decode_s =
    timed (fun () -> Artifact.of_bytes ~expect_digest:digest (Bytes.unsafe_of_string bytes))
  in
  match art with
  | Error e -> failwith (k.key ^ ": stored artifact does not decode: " ^ e)
  | Ok art ->
    let _, rebuild_s =
      timed (fun () -> Graphcost.of_plans config.Compiler.opcost art.Artifact.graph art.Artifact.plans)
    in
    ( [ ("models.resolve_ms", resolve_s); ("store.read_ms", read_s);
        ("store.decode_ms", decode_s); ("cost.rebuild_ms", rebuild_s) ],
      String.length bytes )

(* ------------------------------------------------------------------ *)

let client_loop r addr ~seed ~deadline ~fill_lat samples mu =
  let rng = Rng.create seed in
  (* kinds are dealt from a shuffled deck of all 12, so every kind gets
     the same share of the requests whatever the seed *)
  let deck = ref [] in
  let next_kind () =
    if !deck = [] then deck := shuffle rng kinds;
    let k = List.hd !deck in
    deck := List.tl !deck;
    k
  in
  let record f = Mutex.protect mu f in
  while now () < deadline do
    let conn = Client.open_conn addr in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let n = session_len rng in
    let i = ref 0 in
    while !i < n && now () < deadline do
      incr i;
      let k = next_kind () in
      let line = line_of rng k in
      let t0 = now () in
      let resp = Client.request conn line in
      let client_ms = (now () -. t0) *. 1000.0 in
      record (fun () ->
          r.attempted <- r.attempted + 1;
          match resp with
          | Ok resp when ok_outcome resp ->
            samples := { kind = k.key; client_ms; service_ms = resp.Protocol.ms } :: !samples;
            check r resp.Protocol.hit "%s: warm request was not a cache hit" line;
            check r
              (resp.Protocol.lat = List.assoc k.key fill_lat)
              "%s: lat differs from the set-up compile" line
          | Ok resp ->
            r.failed <- r.failed + 1;
            log "%s: %s" line (Protocol.render resp)
          | Error e ->
            r.failed <- r.failed + 1;
            log "%s: %s" line e);
      Thread.delay (think_s rng)
    done
  done

let run ~seed ~seconds ~trace =
  let r = result () in
  if not (Sys.file_exists cli) then failwith (cli ^ " is not built");
  with_work_dir "warm-daemon" @@ fun work ->
  let c0 = Sys.time () in
  let pid, addr = spawn_daemon ~work in
  children := pid :: !children;
  Fun.protect ~finally:(fun () -> stop_daemon pid; children := []) @@ fun () ->
  wait_healthy addr;
  (* fill the store through the daemon: one cold compile per kind *)
  let fill_rng = Rng.create seed in
  let fill_lat =
    List.map
      (fun k ->
        let line = line_of fill_rng k in
        match one_shot addr line with
        | Ok resp when ok_outcome resp ->
          check r (not resp.Protocol.hit) "%s: set-up compile was already stored" line;
          log "  set-up compile %-22s %.1f ms in the daemon" k.key resp.Protocol.ms;
          (k.key, resp.Protocol.lat)
        | Ok resp -> failwith (line ^ ": set-up compile failed: " ^ Protocol.render resp)
        | Error e -> failwith (line ^ ": set-up compile failed: " ^ e))
      kinds
  in
  (* set-up time is the CPU time of both processes: the daemon's start
     and its compiles, and this process's requests *)
  let setup_s = Sys.time () -. c0 +. proc_cpu_s pid in
  let hits0 = stat_field addr "hits" and compiles0 = stat_field addr "compiles" in
  let samples = ref [] and mu = Mutex.create () in
  let cpu0 = proc_cpu_s pid in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () ->
            try client_loop r addr ~seed:((seed * 1000) + i) ~deadline ~fill_lat samples mu
            with e ->
              Mutex.protect mu (fun () ->
                  r.attempted <- r.attempted + 1;
                  r.failed <- r.failed + 1;
                  log "client %d: %s" i (Printexc.to_string e)))
          ())
  in
  List.iter Thread.join threads;
  let elapsed = now () -. t_start in
  let daemon_cpu = proc_cpu_s pid -. cpu0 in
  let samples = !samples in
  let n = List.length samples in
  log "warm-daemon: %d requests in %.1f s" n elapsed;
  let per_kind = List.map (fun s -> (s.kind, s.client_ms /. 1000.0)) samples in
  log_kinds ~unit:"ms" ~scale:1000.0 per_kind;
  (* the daemon's CPU time per request, times the number of request
     kinds: one pass over the kinds, as on the other workloads *)
  let cpu_s = daemon_cpu /. float_of_int n *. float_of_int (List.length kinds) in
  if not trace then begin
    let cycles_per_ms = Desc.hexagon698.Desc.model_cycles_per_sec /. 1000.0 in
    metric r "setup_s" setup_s;
    metric r "cpu_s" cpu_s;
    metric r "peak_rss_mb" (peak_rss_mb (string_of_int pid));
    metric r "dsp_mcycles"
      (sum (List.map (fun (_, lat) -> Option.value ~default:0.0 lat *. cycles_per_ms) fill_lat) /. 1e6)
  end
  else begin
    let hits = stat_field addr "hits" - hits0 and compiles = stat_field addr "compiles" - compiles0 in
    let client = List.map (fun s -> s.client_ms) samples in
    let service = List.map (fun s -> s.service_ms) samples in
    let wait = List.map (fun s -> s.client_ms -. s.service_ms) samples in
    if n < 1000 then log "only %d samples: p99 has fewer than 10 beyond it" n;
    metric r "daemon.req_p50_ms" (Stats.p50 client);
    metric r "daemon.req_p99_ms" (Stats.p99 client);
    metric r "daemon.service_p50_ms" (Stats.p50 service);
    metric r "daemon.service_p99_ms" (Stats.p99 service);
    metric r "daemon.wait_p50_ms" (Stats.p50 wait);
    metric r "daemon.wait_p99_ms" (Stats.p99 wait);
    metric r "daemon.hits" (float_of_int hits);
    metric r "daemon.compiles" (float_of_int compiles);
    (* per pass over the request kinds, like cpu_s: each layer's median
       over five hits of a kind, summed over the kinds *)
    let store = Filename.concat work "store" in
    let kind_hits = List.map (fun k -> (k, List.init 5 (fun _ -> hit_layers ~store k))) kinds in
    List.iter
      (fun (k, reps) ->
        log "  in-process hit %-22s %.2f ms" k.key
          (1000.0 *. Stats.p50 (List.map (fun (ls, _) -> sum (List.map snd ls)) reps)))
      kind_hits;
    let rows =
      List.concat_map
        (fun (k, reps) -> List.concat_map (fun (ls, _) -> List.map (fun (l, v) -> ((k.key, l), v)) ls) reps)
        kind_hits
    in
    let layer l =
      sum_of_medians (List.filter_map (fun ((k, l'), v) -> if l = l' then Some (k, v) else None) rows)
    in
    List.iter
      (fun l -> metric r l (1000.0 *. layer l))
      [ "models.resolve_ms"; "store.read_ms"; "store.decode_ms"; "cost.rebuild_ms" ];
    (* the entry a kind reads is the same on every hit *)
    let bytes = List.map (fun (_, reps) -> float_of_int (snd (List.hd reps))) kind_hits in
    metric r "store.bytes_per_hit_kb" (sum bytes /. float_of_int (List.length bytes) /. 1024.0);
    metric r "wall.work_s" (sum_of_medians per_kind);
    metric r "wall.ops_per_s" (float_of_int n /. elapsed);
    metric r "trace.cpu_s" cpu_s
  end;
  r
