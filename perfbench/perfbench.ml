(* The repository benchmark: runs one workload of [Workloads] through
   the library's public API on one domain, checks its outputs, and
   prints every metric by name with its unit. The last line of stdout
   is one JSON object:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   Usage:
     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]

   A seed yields several independent trials (schedules). --trace 0 runs
   every trial (one repetition) until S wall seconds have passed, at
   least three times, and reports the end-to-end metrics: host cost as
   medians over repetitions, simulated service pooled over the trials
   of one repetition (every repetition must simulate exactly the same
   numbers). --trace 1 alternates an untraced and a traced run of the
   first trial and reports the per-layer metrics, the tracing overhead,
   and whether tracing left the simulated numbers unchanged. *)

module W = Workloads

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let pct series p = Option.value ~default:0. (Sim.Stats.Series.percentile_opt series p)

(* Everything one trial measured. *)
type trial = {
  setup_s : float;
  wall_s : float;
  events : int;  (** dispatched from window start to drain end *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  attempted : int;
  completed : int;  (** committed or acknowledged *)
  aborted : int;
  failed : int;  (** errored, or unfinished at the end of the drain *)
  lat : Sim.Stats.Series.t;  (** virtual µs from due time to completion *)
  unavail_us : float;
  in_fault : int;  (** arrivals due while a fault was outstanding *)
  checks : (string * bool) list;
  layers : (string * float * string) list;  (** traced repetitions only *)
  peak_heap_mb : float;  (** process top heap at the end of the drain *)
}

(* The simulated part of a trial, rendered exactly: two runs of one
   trial must produce the same string. *)
let digest r =
  String.concat " "
    [
       string_of_int r.events;
       string_of_int r.attempted;
       string_of_int r.completed;
       string_of_int r.aborted;
       string_of_int r.failed;
       Printf.sprintf "%h" (pct r.lat 50.);
       Printf.sprintf "%h" (pct r.lat 99.);
       Printf.sprintf "%h" r.unavail_us;
       string_of_int r.in_fault;
     ]

(* The runtime's default decision timeout: a decision at or past it
   came from the watchdog's reconstruction, not a decision record. *)
let decision_timeout_us = 50_000.

(* Decision lag from Sim.Announce: for each log position, virtual time
   from its first Commit_decided to each other client's. *)
let watch_decisions ~from_us =
  let first = Hashtbl.create 1024 and lags = Sim.Stats.Series.create () in
  Sim.Announce.subscribe (function
    | Sim.Announce.Commit_decided { client; pos; _ } -> (
        let now = Sim.Engine.now () in
        match Hashtbl.find_opt first pos with
        | None -> Hashtbl.add first pos (now, client)
        | Some (t0, c0) ->
            if c0 <> client && t0 >= from_us then Sim.Stats.Series.add lags (now -. t0))
    | _ -> ());
  lags

let layer_metrics (env : W.env) a b ~lags ~ops =
  let module L = Layers in
  let module C = Tango_harness.Chaos in
  let per x y = if y = 0 then 0. else float_of_int x /. float_of_int y in
  let per_op x = per x ops in
  let ratio x y = if x + y = 0 then 0. else float_of_int x /. float_of_int (x + y) in
  let c = L.counter a b in
  let d (f : Tango.Runtime.append_stats -> int) =
    List.fold_left (fun n s -> n + f s) 0 b.L.appends
    - List.fold_left (fun n s -> n + f s) 0 a.L.appends
  in
  let span_pct name p = pct (Spans.durations name) p in
  let late =
    let n = ref 0 in
    Sim.Stats.Series.iter lags (fun l -> if l >= decision_timeout_us then incr n);
    if Sim.Stats.Series.count lags = 0 then 0.
    else float_of_int !n /. float_of_int (Sim.Stats.Series.count lags)
  in
  let incidents = env.W.incidents () in
  let first_incident f = match incidents with [] -> 0. | i :: _ -> f i in
  [
    ( "net.sequencer_nic_busy",
      Float.max (L.utilization a b "seq.nic_in") (L.utilization a b "seq.nic_out"),
      "share" );
    ("sequencer.increments_per_op", per_op (c "seq.increments"), "count/op");
    ("sequencer.peeks_per_op", per_op (c "seq.peeks"), "count/op");
    ("sequencer.grant_p99_us", L.hist_pct a b "sequencer.grant_us" 99., "us");
    ("storage.writes_per_op", per_op (c "ssd.writes"), "count/op");
    ("storage.reads_per_op", per_op (c "ssd.reads"), "count/op");
    ("storage.ssd_busy_max", L.max_utilization a b ~prefix:"ssd:", "share");
    ("client.append_p50_us", L.hist_pct a b "append.e2e_us" 50., "us");
    ("client.append_p99_us", L.hist_pct a b "append.e2e_us" 99., "us");
    ("client.read_fetch_p99_us", L.hist_pct a b "read.fetch_us" 99., "us");
    ("client.cache_hit_ratio", ratio (c "client.cache_hits") (c "client.cache_misses"), "share");
    ("client.retries_per_op", per_op (c "client.retries"), "count/op");
    ("client.rpc_failures", float_of_int (c "client.rpc_failures"), "count");
    ( "batcher.records_per_entry",
      per (d (fun s -> s.as_records)) (d (fun s -> s.as_entries)),
      "count" );
    ( "batcher.grant_occupancy",
      per (d (fun s -> s.as_granted_entries)) (d (fun s -> s.as_grants)),
      "count" );
    ( "batcher.inflight_peak",
      float_of_int
        (List.fold_left (fun n s -> max n s.Tango.Runtime.as_inflight_peak) 0 b.L.appends),
      "count" );
    ("runtime.begin_tx_p99_us", span_pct "runtime.begin_tx" 99., "us");
    ("runtime.end_tx_p50_us", span_pct "runtime.end_tx" 50., "us");
    ("runtime.end_tx_p99_us", span_pct "runtime.end_tx" 99., "us");
    ("runtime.commit_ratio", ratio (b.L.commits - a.L.commits) (b.L.aborts - a.L.aborts), "share");
    ("runtime.applied_per_op", per_op (b.L.applied - a.L.applied), "count/op");
    ("runtime.playback_cache_hit_ratio",
      ratio (d (fun s -> s.Tango.Runtime.as_cache_hits)) (d (fun s -> s.as_cache_misses)), "share");
    ("runtime.playback_apply_p99_us", L.hist_pct a b "playback.apply_us" 99., "us");
    ("runtime.decision_lag_p50_ms", pct lags 50. /. 1e3, "ms");
    ("runtime.decision_lag_p99_ms", pct lags 99. /. 1e3, "ms");
    ("runtime.decisions_late_share", late, "share");
    ("register.read_p99_us", span_pct "register.read" 99., "us");
    ("register.write_p99_us", span_pct "register.write" 99., "us");
    ("cluster.recoveries", float_of_int (List.length incidents), "count");
    ( "cluster.detect_ms",
      first_incident (fun i -> (i.C.inc_detected_us -. i.C.inc_crashed_us) /. 1e3),
      "ms" );
    ( "cluster.install_ms",
      first_incident (fun i -> (i.C.inc_recovered_us -. i.C.inc_detected_us) /. 1e3),
      "ms" );
    ( "cluster.rebuild_entries",
      float_of_int (List.fold_left (fun n i -> n + i.C.inc_rebuild_entries) 0 incidents),
      "count" );
    ("cluster.probe_failures", float_of_int (c "cluster.probe_failures"), "count");
  ]

(* One trial: set-up, warm-up, the window, the drain, the checks. *)
let run_trial (w : W.t) ~traced ~check =
  Spans.reset ~on:traced;
  Gc.compact ();
  let t_start = Unix.gettimeofday () in
  Sim.Engine.run ~seed:1 (fun () ->
      let env = w.W.setup () in
      let base = Sim.Engine.now () in
      let w0 = base +. w.W.warm_us and w1 = base +. w.W.warm_us +. w.W.window_us in
      let lags = if traced then watch_decisions ~from_us:w0 else Sim.Stats.Series.create () in
      let n = Array.length w.W.due in
      let outcomes = Array.make n W.Pending and finished = Array.make n nan in
      let remaining = ref (n - w.W.first_window) in
      let drained = Sim.Ivar.create () in
      let finish () = if not (Sim.Ivar.is_filled drained) then Sim.Ivar.fill drained () in
      Sim.Engine.spawn (fun () ->
          for i = 0 to n - 1 do
            let due = base +. w.W.due.(i) in
            Sim.Engine.sleep (due -. Sim.Engine.now ());
            Sim.Engine.spawn (fun () ->
                let root = Spans.root ~op:i ~due "op" in
                let o = try env.W.op i ~parent:root with _ -> W.Errored in
                outcomes.(i) <- o;
                finished.(i) <- Sim.Engine.now ();
                Spans.close root;
                if i >= w.W.first_window then begin
                  decr remaining;
                  if !remaining = 0 then finish ()
                end)
          done);
      Sim.Engine.spawn ~at:(w1 +. W.drain_us) finish;
      Sim.Engine.sleep (w0 -. Sim.Engine.now ());
      let t_w0 = Unix.gettimeofday () in
      let ev0 = Sim.Engine.events_dispatched () in
      let gc0 = Gc.quick_stat () in
      let snap0 = if traced then Some (Layers.take env.W.cluster env.W.runtimes) else None in
      if !remaining = 0 then finish ();
      Sim.Ivar.read drained;
      let t_w1 = Unix.gettimeofday () in
      let ev1 = Sim.Engine.events_dispatched () in
      let gc1 = Gc.quick_stat () in
      let peak_heap_mb = float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. in
      let snap1 = if traced then Some (Layers.take env.W.cluster env.W.runtimes) else None in
      let lat = Sim.Stats.Series.create () in
      let completions = ref [] in
      let completed = ref 0 and aborted = ref 0 and failed = ref 0 in
      for i = w.W.first_window to n - 1 do
        match outcomes.(i) with
        | W.Done | W.Aborted ->
            if outcomes.(i) = W.Done then incr completed else incr aborted;
            let due = base +. w.W.due.(i) in
            Sim.Stats.Series.add lat (finished.(i) -. due);
            completions := finished.(i) :: !completions
        | W.Errored | W.Pending -> incr failed
      done;
      let unavail_us =
        let times = List.sort compare !completions in
        fst (List.fold_left (fun (gap, prev) t -> (Float.max gap (t -. prev), t)) (0., w0) times)
      in
      let attempted = n - w.W.first_window in
      let incidents = env.W.incidents () in
      let in_fault = ref 0 in
      for i = w.W.first_window to n - 1 do
        let due = base +. w.W.due.(i) in
        if
          List.exists
            (fun c -> due >= c.Tango_harness.Chaos.inc_crashed_us && due <= c.inc_recovered_us)
            incidents
        then incr in_fault
      done;
      let layers =
        match (snap0, snap1) with
        | Some a, Some b -> layer_metrics env a b ~lags ~ops:attempted
        | _ -> []
      in
      let checks = if check then env.W.check outcomes else [] in
      {
        setup_s = t_w0 -. t_start;
        wall_s = t_w1 -. t_w0;
        events = ev1 - ev0;
        minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
        major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
        major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
        attempted;
        completed = !completed;
        aborted = !aborted;
        failed = !failed;
        lat;
        unavail_us;
        in_fault = !in_fault;
        checks;
        layers;
        peak_heap_mb;
      })

let print_metrics metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %.6g %s\n" n v u) metrics

let print_checks checks =
  List.iter
    (fun (n, ok) -> Printf.printf "  check %-34s %s\n" n (if ok then "ok" else "FAILED"))
    checks

(* Repeat [f] until [seconds] have passed and it ran at least [min] times. *)
let repeat ~seconds ~min f =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    if n >= min && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (f ~first:(n = 0) :: acc) (n + 1)
  in
  go [] 0

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l

(* --trace 0: every trial of the workload, repeated; end-to-end metrics. *)
let end_to_end (trials : W.t list) ~seconds =
  let reps =
    repeat ~seconds ~min:3 (fun ~first ->
        List.map (fun w -> run_trial w ~traced:false ~check:first) trials)
  in
  let first = List.hd reps in
  let digests rep = List.map digest rep in
  let same = List.for_all (fun rep -> digests rep = digests first) reps in
  let lat = Sim.Stats.Series.create () in
  List.iter (fun t -> Sim.Stats.Series.iter t.lat (Sim.Stats.Series.add lat)) first;
  let attempted = sum (fun t -> t.attempted) first in
  let ops = float_of_int attempted in
  let completed = sum (fun t -> t.completed) first in
  let aborted = sum (fun t -> t.aborted) first and failed = sum (fun t -> t.failed) first in
  let mean f = sumf f trials /. float_of_int (List.length trials) in
  Printf.printf "  %d trials x %d repetitions; %d arrivals; completed %d, aborted %d, failed %d\n"
    (List.length trials) (List.length reps) attempted completed aborted failed;
  Printf.printf
    "  latency samples %d; fail_share %.6f (aborted, errored or unfinished / all arrivals)\n"
    (Sim.Stats.Series.count lat)
    (float_of_int (aborted + failed) /. ops);
  Printf.printf
    "  properties: needs_decision tx share %.4f, read share %.4f, arrivals due while a fault is \
     outstanding %.4f\n"
    (mean (fun w -> w.W.needs_decision_share))
    (mean (fun w -> w.W.read_share))
    (float_of_int (sum (fun t -> t.in_fault) first) /. ops);
  (* every trial runs the same checks; one line per check *)
  let checks =
    List.map
      (fun (n, _) -> (n, List.for_all (fun t -> List.assoc n t.checks) first))
      (List.hd first).checks
    @ [ ("repetitions-simulate-identically", same) ]
  in
  print_checks checks;
  List.iteri (fun k t -> Printf.printf "  sim digest, trial %d: %s\n" k (digest t)) first;
  let last_trial = List.nth first (List.length first - 1) in
  let metrics =
    [
      ("setup_s", median (List.map (sumf (fun t -> t.setup_s)) reps), "s");
      (* read after the first repetition, so it does not depend on how many ran *)
      ("peak_heap_mb", last_trial.peak_heap_mb, "MB");
      ("sim_p50_ms", pct lat 50. /. 1e3, "ms");
      ("sim_p99_ms", pct lat 99. /. 1e3, "ms");
      ("ok_share", float_of_int completed /. ops, "share");
    ]
  in
  (* Printed but not bounded. Window wall time follows the host's speed,
     which drifts by tens of percent over minutes. The longest completion
     gap on the fault-free workloads is the largest of thousands of
     sub-ms gaps, too noisy from seed to seed to gate. *)
  Printf.printf "  wall_s %.6g s (median over repetitions)\n"
    (median (List.map (sumf (fun t -> t.wall_s)) reps));
  Printf.printf "  sim_unavail_ms %.6g ms (median over trials of the longest completion gap)\n"
    (median (List.map (fun t -> t.unavail_us /. 1e3) first));
  (List.for_all snd checks, attempted, failed, metrics)

(* --trace 1: the first trial, untraced then traced, repeated;
   per-layer metrics and the tracing overhead. *)
let traced_run (w : W.t) ~seconds ~spans_out =
  let pairs =
    repeat ~seconds ~min:1 (fun ~first ->
        let plain = run_trial w ~traced:false ~check:first in
        let traced = run_trial w ~traced:true ~check:first in
        (plain, traced))
  in
  if spans_out <> "" then Spans.write spans_out;
  let plain, traced = List.hd pairs in
  let same =
    List.for_all (fun (p, t) -> digest p = digest plain && digest t = digest plain) pairs
  in
  let ops = float_of_int (max 1 plain.attempted) in
  let untraced f = median (List.map (fun (p, _) -> f p) pairs) in
  let wall_plain = untraced (fun p -> p.wall_s) in
  let wall_traced = median (List.map (fun (_, t) -> t.wall_s) pairs) in
  let checks =
    plain.checks
    @ List.map (fun (n, ok) -> ("traced:" ^ n, ok)) traced.checks
    @ [ ("tracing-leaves-simulation-unchanged", same) ]
  in
  Printf.printf "  first trial, %d untraced + traced pairs; %d arrivals; %d spans\n"
    (List.length pairs)
    plain.attempted (Array.length (Spans.all ()));
  Printf.printf "  properties: needs_decision tx share %.4f, read share %.4f\n"
    w.W.needs_decision_share w.W.read_share;
  print_checks checks;
  Printf.printf "  sim digest: %s\n" (digest plain);
  let metrics =
    [
      ("engine.events_per_op", float_of_int plain.events /. ops, "count/op");
      ("engine.events_per_wall_s", float_of_int plain.events /. wall_plain, "1/s");
      ("gc.minor_words_per_op", untraced (fun p -> p.minor_words) /. ops, "words/op");
      ("gc.major_words_per_op", untraced (fun p -> p.major_words) /. ops, "words/op");
      ("gc.major_collections", untraced (fun p -> float_of_int p.major_collections), "count");
    ]
    @ traced.layers
    @ [
        ("props.fault_arrival_share", float_of_int plain.in_fault /. ops, "share");
        ("sim_unavail_ms", plain.unavail_us /. 1e3, "ms");
        ("trace.wall_s", wall_traced, "s");
        ("trace.overhead_wall_s", wall_traced -. wall_plain, "s");
      ]
  in
  (List.for_all snd checks, plain.attempted, plain.failed, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--spans-out", Arg.Set_string spans_out, "FILE where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload W.names) || not (!trace = 0 || !trace = 1) then begin
    prerr_endline "perfbench: need --workload NAME and --trace 0|1; see --help";
    exit 2
  end;
  (* each trial is an independent schedule drawn from the seed *)
  let trials =
    List.init (W.trials !workload) (fun k -> W.make !workload ~seed:((!seed * 16) + k))
  in
  Printf.printf "workload %s seed %d (%.0f ms window after %.0f ms warm-up per trial)\n" !workload
    !seed
    ((List.hd trials).W.window_us /. 1e3)
    ((List.hd trials).W.warm_us /. 1e3);
  let correct, attempted, failed, metrics =
    if !trace = 1 then traced_run (List.hd trials) ~seconds:!seconds ~spans_out:!spans_out
    else end_to_end trials ~seconds:!seconds
  in
  print_metrics metrics;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not correct then prerr_endline "perfbench: output checks FAILED";
  if not finite then prerr_endline "perfbench: a metric is not a finite number";
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n
              (if Float.is_finite v then v else 0.)
              u)
          metrics))
