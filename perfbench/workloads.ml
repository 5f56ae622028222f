(* The four benchmark workloads.

   Each workload turns a seed into a fixed schedule of arrivals (due
   times plus per-arrival inputs) before the simulation starts, so the
   program under test receives only generated inputs. The schedule is
   an open loop: every arrival is issued at its due time, with no cap
   on outstanding operations, so every commit simulates the same work.
   Warm-up arrivals precede the measured window; only window arrivals
   are counted. *)

open Tango_objects
module Key_dist = Tango_workloads.Key_dist

type outcome = Pending | Done | Aborted | Errored

(* What a workload hands the runner once its cluster is built. *)
type env = {
  cluster : Corfu.Cluster.t;
  runtimes : Tango.Runtime.t list;  (** measured runtimes, for append stats *)
  op : int -> parent:int -> outcome;  (** run arrival [i] (a fiber of its own) *)
  check : outcome array -> (string * bool) list;
      (** output checks, run in virtual time after the drain *)
  incidents : unit -> Tango_harness.Chaos.incident list;  (** storage-node failures so far *)
}

type t = {
  warm_us : float;
  window_us : float;
  due : float array;  (** arrival due times (µs after set-up), ascending *)
  first_window : int;  (** index of the first arrival due in the window *)
  read_share : float;  (** reads as a share of all window ops *)
  needs_decision_share : float;  (** window transactions writing a needs_decision object *)
  setup : unit -> env;
}

let drain_us = 2_000_000.

(* Poisson arrivals of [clients] independent sources at [rate]/s each
   over [0, total_us), merged in due order: (due, client) pairs. *)
let arrivals rng ~clients ~rate ~total_us =
  let acc = ref [] in
  for c = 0 to clients - 1 do
    let r = Sim.Rng.split rng in
    let t = ref (Sim.Rng.exponential r ~mean:(1e6 /. rate)) in
    while !t < total_us do
      acc := (!t, c) :: !acc;
      t := !t +. Sim.Rng.exponential r ~mean:(1e6 /. rate)
    done
  done;
  let a = Array.of_list !acc in
  Array.stable_sort compare a;
  a

let first_at due t =
  let n = Array.length due in
  let rec go i = if i < n && due.(i) < t then go (i + 1) else i in
  go 0

let no_incidents () = []
let share num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* Transactions on Tango_map: tx-partitioned and tx-shared            *)
(* ------------------------------------------------------------------ *)

type tx_input = {
  tx_client : int;
  tx_reads : string array;
  tx_writes : string array;
  tx_shared : (string * string) option;  (** read key, write key on the shared map *)
}

let shared_oid = 100

let run_tx ~rt ~priv ~common (a : tx_input) ~value ~op ~parent =
  let w ?outcome name f = Spans.wrap ?outcome ~op ~parent name f in
  w "runtime.begin_tx" (fun () -> Tango.Runtime.begin_tx rt);
  Array.iter (fun k -> ignore (w "map.get" (fun () -> Tango_map.get priv k))) a.tx_reads;
  Array.iter (fun k -> w "map.put" (fun () -> Tango_map.put priv k value)) a.tx_writes;
  (match (a.tx_shared, common) with
  | Some (rk, wk), Some m ->
      ignore (w "map.get" (fun () -> Tango_map.get m rk));
      w "map.put" (fun () -> Tango_map.put m wk value)
  | _ -> ());
  let label = function Tango.Runtime.Committed -> "committed" | Aborted -> "aborted" in
  match w ~outcome:label "runtime.end_tx" (fun () -> Tango.Runtime.end_tx rt) with
  | Tango.Runtime.Committed -> Done
  | Aborted -> Aborted

let value_of i = "v" ^ string_of_int i

(* After the drain: every client hosting a map, and a late-joining
   auditor replaying the whole log, agree on the map's bindings; the
   bindings hold exactly the keys committed transactions wrote, each
   bound to a value one of those transactions wrote; and the runtimes'
   commit/abort counters match the benchmark's own tallies. *)
let check_tx ~cluster ~runtimes ~hosts ~(inputs : tx_input array) outcomes =
  let expected = Hashtbl.create 1024 in
  let note oid k i =
    let key = (oid, k) in
    Hashtbl.replace expected key (i :: Option.value ~default:[] (Hashtbl.find_opt expected key))
  in
  Array.iteri
    (fun i a ->
      if outcomes.(i) = Done then begin
        Array.iter (fun k -> note (a.tx_client + 1) k i) a.tx_writes;
        Option.iter (fun (_, k) -> note shared_oid k i) a.tx_shared
      end)
    inputs;
  (* the auditor hosts every map before it plays anything *)
  let auditor = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"auditor") in
  let audits =
    List.map
      (fun (oid, maps) ->
        (oid, maps, Tango_map.attach auditor ~oid ~needs_decision:(oid = shared_oid)))
      hosts
  in
  let agree = ref true and contents = ref true in
  List.iter
    (fun (oid, maps, audit) ->
      let reference = List.sort compare (Tango_map.bindings audit) in
      List.iter
        (fun m -> if List.sort compare (Tango_map.bindings m) <> reference then agree := false)
        maps;
      let keys = ref 0 in
      List.iter
        (fun (k, v) ->
          incr keys;
          match Hashtbl.find_opt expected (oid, k) with
          | Some writers when List.exists (fun i -> value_of i = v) writers -> ()
          | _ -> contents := false)
        reference;
      let expected_keys =
        Hashtbl.fold (fun (o, _) _ n -> if o = oid then n + 1 else n) expected 0
      in
      if !keys <> expected_keys then contents := false)
    audits;
  let count o = Array.fold_left (fun n x -> if x = o then n + 1 else n) 0 outcomes in
  let sum f = List.fold_left (fun n rt -> n + f rt) 0 runtimes in
  let tallies =
    sum Tango.Runtime.commits = count Done && sum Tango.Runtime.aborts = count Aborted
  in
  let spans =
    (not !Spans.enabled)
    || Spans.count_named ~outcome:"committed" "runtime.end_tx" = sum Tango.Runtime.commits
       && Spans.count_named ~outcome:"aborted" "runtime.end_tx" = sum Tango.Runtime.aborts
  in
  [
    ("hosts-agree-on-bindings", !agree);
    ("bindings-are-committed-writes", !contents);
    ("commit-abort-counters-match", tallies);
    ("end_tx-spans-match-counters", spans);
  ]

let tx_workload ~seed ~clients ~rate ~reads ~writes ~shared_pct ~warm_us ~window_us =
  let rng = Sim.Rng.create seed in
  let dist = Key_dist.uniform ~n:100_000 in
  let sched = arrivals (Sim.Rng.split rng) ~clients ~rate ~total_us:(warm_us +. window_us) in
  let due = Array.map fst sched in
  let inputs =
    Array.map
      (fun (_, c) ->
        let keys n = Array.of_list (Key_dist.distinct_keys dist rng n) in
        let tx_reads = keys reads in
        let tx_writes = keys writes in
        let tx_shared =
          if Sim.Rng.int rng 100 < shared_pct then
            Some (Key_dist.sample_key dist rng, Key_dist.sample_key dist rng)
          else None
        in
        { tx_client = c; tx_reads; tx_writes; tx_shared })
      sched
  in
  let first_window = first_at due warm_us in
  let window = Array.sub inputs first_window (Array.length inputs - first_window) in
  let nw = Array.length window in
  let n_shared = Array.fold_left (fun n a -> if a.tx_shared <> None then n + 1 else n) 0 window in
  let setup () =
    let cluster = Corfu.Cluster.create ~servers:18 () in
    let runtimes =
      Array.init clients (fun i ->
          let name = Printf.sprintf "node-%d" i in
          Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name))
    in
    let privs = Array.mapi (fun i rt -> Tango_map.attach rt ~oid:(i + 1)) runtimes in
    let commons =
      if shared_pct > 0 then
        Array.map
          (fun rt -> Some (Tango_map.attach rt ~oid:shared_oid ~needs_decision:true))
          runtimes
      else Array.make clients None
    in
    let op i ~parent =
      let a = inputs.(i) in
      let c = a.tx_client in
      run_tx ~rt:runtimes.(c) ~priv:privs.(c) ~common:commons.(c) a ~value:(value_of i) ~op:i
        ~parent
    in
    let hosts =
      Array.to_list (Array.mapi (fun i m -> (i + 1, [ m ])) privs)
      @
      if shared_pct > 0 then [ (shared_oid, List.filter_map Fun.id (Array.to_list commons)) ]
      else []
    in
    let runtimes = Array.to_list runtimes in
    {
      cluster;
      runtimes;
      op;
      check = check_tx ~cluster ~runtimes ~hosts ~inputs;
      incidents = no_incidents;
    }
  in
  {
    warm_us;
    window_us;
    due;
    first_window;
    read_share =
      share
        ((nw * reads) + n_shared)
        ((nw * (reads + writes)) + (2 * n_shared));
    needs_decision_share = share n_shared nw;
    setup;
  }

(* ------------------------------------------------------------------ *)
(* register-rw: one writer, eight linearizable readers                *)
(* ------------------------------------------------------------------ *)

let register_rw ~seed =
  let readers = 8 and rate = 10_000. in
  let warm_us = 50_000. and window_us = 300_000. in
  let rng = Sim.Rng.create seed in
  (* source 0 is the writer, sources 1..readers the readers *)
  let sched = arrivals rng ~clients:(readers + 1) ~rate ~total_us:(warm_us +. window_us) in
  let due = Array.map fst sched in
  let who = Array.map snd sched in
  (* write values count up in due order *)
  let value = Array.make (Array.length sched) 0 in
  let last_value = ref 0 in
  Array.iteri
    (fun i c ->
      if c = 0 then begin
        incr last_value;
        value.(i) <- !last_value
      end)
    who;
  let first_window = first_at due warm_us in
  let nw = Array.length due - first_window in
  let n_reads = ref 0 in
  for i = first_window to Array.length due - 1 do
    if who.(i) > 0 then incr n_reads
  done;
  let setup () =
    let cluster = Corfu.Cluster.create ~servers:18 () in
    let rts =
      Array.init (readers + 1) (fun c ->
          let name = if c = 0 then "writer" else Printf.sprintf "reader-%d" c in
          Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name))
    in
    let regs = Array.map (fun rt -> Tango_register.attach rt ~oid:1) rts in
    let acked = ref 0 in
    let stale = ref 0 in
    (* value -> log position, as observed by readers *)
    let seen = Hashtbl.create 1024 in
    let op i ~parent =
      let reg = regs.(who.(i)) in
      if who.(i) = 0 then begin
        Spans.wrap ~op:i ~parent "register.write" (fun () -> Tango_register.write reg value.(i));
        acked := max !acked value.(i)
      end
      else begin
        let floor = !acked in
        let r = Spans.wrap ~op:i ~parent "register.read" (fun () -> Tango_register.read reg) in
        let pos = Tango_register.last_update_pos reg in
        if r < floor then incr stale;
        if r > 0 then Hashtbl.replace seen r pos
      end;
      Done
    in
    (* No read returns a value older than a write acknowledged before the
       read began: each read is at least the largest acknowledged value,
       and the values readers observed sit in the log in value order, so
       value order is log order. After the drain every view reads the
       last value written. *)
    let check _ =
      let pairs = List.sort compare (Hashtbl.fold (fun v p acc -> (v, p) :: acc) seen []) in
      let rec ordered = function
        | (_, p1) :: ((_, p2) :: _ as rest) -> p1 < p2 && ordered rest
        | _ -> true
      in
      let finals = Array.for_all (fun reg -> Tango_register.read reg = !last_value) regs in
      [
        ("no-stale-read", !stale = 0);
        ("observed-values-in-log-order", ordered pairs);
        ("views-read-last-write", finals);
      ]
    in
    { cluster; runtimes = Array.to_list rts; op; check; incidents = no_incidents }
  in
  {
    warm_us;
    window_us;
    due;
    first_window;
    read_share = share !n_reads nw;
    needs_decision_share = 0.;
    setup;
  }

(* ------------------------------------------------------------------ *)
(* crash-recovery: raw appends while the chain head crashes           *)
(* ------------------------------------------------------------------ *)

let crash_recovery ~seed =
  let hosts = 16 and rate = 1_500. in
  (* The window closes 80 ms after the crash: long enough for the
     monitor to recover and then replace the fresh spare (the defect this
     workload keeps visible), short enough that the backlog does not
     cascade into further replacements. *)
  let warm_us = 50_000. and window_us = 100_000. in
  let crash_us = warm_us +. 20_000. in
  let rng = Sim.Rng.create seed in
  let sched = arrivals rng ~clients:hosts ~rate ~total_us:(warm_us +. window_us) in
  let due = Array.map fst sched in
  let who = Array.map snd sched in
  let first_window = first_at due warm_us in
  let setup () =
    let cluster = Corfu.Cluster.create ~servers:6 () in
    let clients =
      Array.init hosts (fun h ->
          Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "host-%d" h))
    in
    (* due times count from the end of set-up, which is now *)
    let base = Sim.Engine.now () in
    let victim = (Corfu.Cluster.storage_nodes cluster).(0) in
    let fault =
      Tango_harness.Chaos.install ~seed:7
        ~plan:[ (base +. crash_us, Sim.Fault.Crash (Corfu.Storage_node.name victim)) ]
        cluster
    in
    Corfu.Cluster.start_failure_monitor cluster;
    let landed = Array.make (Array.length due) (-1) in
    let payload i = Bytes.of_string ("a" ^ string_of_int i) in
    let op i ~parent =
      let h = who.(i) in
      landed.(i) <-
        Spans.wrap ~op:i ~parent "client.append" (fun () ->
            Corfu.Client.append clients.(h) ~streams:[ 1 ] (payload i));
      Done
    in
    (* Every acknowledged append reads back, resolved, as its own data
       after the recovery; no two appends share an offset. *)
    let check outcomes =
      let reader = Corfu.Cluster.new_client cluster ~name:"auditor" in
      let acked = ref [] in
      Array.iteri (fun i o -> if o = Done then acked := i :: !acked) outcomes;
      let acked = Array.of_list !acked in
      let bad = ref 0 in
      let workers = 64 in
      let left = ref workers and all_read = Sim.Ivar.create () in
      for w = 0 to workers - 1 do
        Sim.Engine.spawn (fun () ->
            let j = ref w in
            while !j < Array.length acked do
              let i = acked.(!j) in
              (match Corfu.Client.read_resolved reader landed.(i) with
              | Corfu.Client.Data e when Bytes.equal e.Corfu.Types.payload (payload i) -> ()
              | _ -> incr bad);
              j := !j + workers
            done;
            decr left;
            if !left = 0 then Sim.Ivar.fill all_read ())
      done;
      Sim.Ivar.read all_read;
      let offsets = Hashtbl.create (Array.length acked) in
      Array.iter (fun i -> Hashtbl.replace offsets landed.(i) ()) acked;
      [
        ("acked-appends-read-back", !bad = 0);
        ("acked-offsets-distinct", Hashtbl.length offsets = Array.length acked);
      ]
    in
    let incidents () = Tango_harness.Chaos.incidents fault cluster in
    { cluster; runtimes = []; op; check; incidents }
  in
  {
    warm_us;
    window_us;
    due;
    first_window;
    read_share = 0.;
    needs_decision_share = 0.;
    setup;
  }

let names = [ "tx-partitioned"; "tx-shared"; "register-rw"; "crash-recovery" ]

(* Independent trials per repetition, each with its own schedule; their
   latencies are pooled. tx-shared needs the most: its p99 sits among the
   8% of transactions that touch the shared map, and its host cost grows
   faster than linearly with window length, so it gets many short
   windows instead of one long one. *)
let trials = function "tx-shared" -> 12 | "crash-recovery" -> 3 | _ -> 2

let make name ~seed =
  match name with
  | "tx-partitioned" ->
      tx_workload ~seed ~clients:18 ~rate:8_000. ~reads:3 ~writes:3 ~shared_pct:0
        ~warm_us:30_000. ~window_us:80_000.
  | "tx-shared" ->
      tx_workload ~seed ~clients:4 ~rate:2_000. ~reads:2 ~writes:2 ~shared_pct:8
        ~warm_us:50_000. ~window_us:100_000.
  | "register-rw" -> register_rw ~seed
  | "crash-recovery" -> crash_recovery ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
