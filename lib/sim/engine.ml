exception Deadlock
exception Horizon_reached of float

type 'a resumer = 'a -> unit

(* A timestamped cross-shard message: produced by [post] during a
   window, delivered by the coordinator at the merge barrier. (m_at,
   m_src, m_seq) totally orders every message of a window, making the
   merge deterministic regardless of domain scheduling. *)
type smsg = {
  m_at : float;
  m_src : int;
  m_seq : int;
  m_dst : int;
  m_thunk : unit -> unit;
}

type world = {
  q : Eventq.t;
  world_rng : Rng.t;
  clock : float array;  (* 1 element: a float-array store stays unboxed *)
  peek : float array;  (* 1 element: Eventq.next_time_into scratch *)
  mutable next_seq : int;
  mutable next_fiber : int;
  mutable current_fiber : int;
  mutable events : int;  (* dispatched so far this run *)
  mutable failure : exn option;
  mutable main_done : bool;
  (* sharding *)
  shard : int;
  nshards : int;
  lookahead_us : float;
  mutable outbox : smsg list;  (* drained at each merge barrier *)
  mutable out_seq : int;
  mutable msgs_out : int;
  mutable msgs_in : int;
  mutable stall_s : float;  (* real seconds spent waiting at barriers *)
}

(* The running world is domain-local: each shard's domain sees its own
   world, so [now]/[rng]/[spawn] inside event thunks bind to the shard
   executing them. *)
let current_key : world option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* Registries that outlive [run] (Metrics, Timeseries, Slo, ...):
   [start] gives each a fresh generation before [main] runs; [finish]
   makes it drop every closure and handle into the finished world once
   the run has ended, returned or raised. Registered at module
   initialisation and called only from the coordinating domain. *)
let registries : ((unit -> unit) * (unit -> unit)) list ref = ref []
let on_run ~start ~finish = registries := !registries @ [ (start, finish) ]
let start_registries () = List.iter (fun (start, _) -> start ()) !registries
let finish_registries () = List.iter (fun (_, finish) -> finish ()) !registries

let get_world () =
  match !(Domain.DLS.get current_key) with
  | Some w -> w
  | None -> invalid_arg "Sim.Engine: no simulation is running"

let now () = (get_world ()).clock.(0)
let rng () = (get_world ()).world_rng
let fiber_id () = (get_world ()).current_fiber
let events_dispatched () = (get_world ()).events
let shard_id () = (get_world ()).shard
let shard_count () = (get_world ()).nshards
let lookahead () = (get_world ()).lookahead_us

(* Events due now (after <= 0) take the immediate lane: O(1) ring
   append, no heap traffic. Later events go through the banded queue.
   Both paths allocate nothing beyond the caller's thunk. *)
let push_event w ~after thunk =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  if after <= 0. then Eventq.push_now w.q (Array.unsafe_get w.clock 0) seq thunk
  else Eventq.push w.q (Array.unsafe_get w.clock 0 +. after) seq thunk

let schedule ~after thunk = push_event (get_world ()) ~after thunk

let post ~shard ?after thunk =
  let w = get_world () in
  if shard < 0 || shard >= w.nshards then invalid_arg "Sim.Engine.post: no such shard";
  let after = match after with Some a -> a | None -> w.lookahead_us in
  if shard = w.shard then push_event w ~after thunk
  else begin
    if after < w.lookahead_us then
      invalid_arg "Sim.Engine.post: cross-shard delay below the lookahead window";
    let seq = w.out_seq in
    w.out_seq <- seq + 1;
    w.msgs_out <- w.msgs_out + 1;
    w.outbox <-
      {
        m_at = Array.unsafe_get w.clock 0 +. after;
        m_src = w.shard;
        m_seq = seq;
        m_dst = shard;
        m_thunk = thunk;
      }
      :: w.outbox
  end

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t

let sleep dt = Effect.perform (Sleep dt)
let yield () = Effect.perform (Sleep 0.)
let suspend register = Effect.perform (Suspend register)

let make_resumer w fid k =
  let used = ref false in
  fun v ->
    if !used then invalid_arg "Sim.Engine: resumer called twice";
    used := true;
    push_event w ~after:0. (fun () ->
        w.current_fiber <- fid;
        Effect.Deep.continue k v)

let start_fiber w fid f =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          (* First failure wins; it aborts the whole run. *)
          if w.failure = None then w.failure <- Some e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep dt ->
              Some
                (fun (k : (a, unit) continuation) ->
                  push_event w ~after:dt (fun () ->
                      w.current_fiber <- fid;
                      continue k ()))
          | Suspend register ->
              Some (fun (k : (a, unit) continuation) -> register (make_resumer w fid k))
          | _ -> None);
    }
  in
  w.current_fiber <- fid;
  match_with f () handler

let spawn ?(at = Float.neg_infinity) f =
  let w = get_world () in
  let fid = w.next_fiber in
  w.next_fiber <- fid + 1;
  let after =
    if at = Float.neg_infinity then 0.
    else begin
      let d = at -. Array.unsafe_get w.clock 0 in
      if d < 0. then invalid_arg "Sim.Engine.spawn: ~at is in the past";
      d
    end
  in
  push_event w ~after (fun () -> start_fiber w fid f)

(* -- per-shard dispatch ------------------------------------------------ *)

let make_world ~shard ~nshards ~lookahead ~seed =
  {
    q = Eventq.create ();
    world_rng = Rng.create_stream seed ~stream:shard;
    clock = [| 0. |];
    peek = [| 0. |];
    next_seq = 0;
    next_fiber = 0;
    current_fiber = 0;
    events = 0;
    failure = None;
    main_done = false;
    shard;
    nshards;
    lookahead_us = lookahead;
    outbox = [];
    out_seq = 0;
    msgs_out = 0;
    msgs_in = 0;
    stall_s = 0.;
  }

let spawn_main w main result =
  let fid = w.next_fiber in
  w.next_fiber <- fid + 1;
  push_event w ~after:0. (fun () ->
      start_fiber w fid (fun () ->
          let r = main () in
          result := Some r;
          w.main_done <- true))

(* The dispatch inner loop: per already-scheduled event, a peek, one
   comparison, one store, one pop — zero allocations.
   [Eventq.next_time_into] moves the peeked time through unboxed
   float-array slots so no float is ever boxed here. *)
let drive w ?until () =
  let q = w.q in
  let clock = w.clock in
  let peek = w.peek in
  let rec loop () =
    if w.main_done || w.failure <> None then ()
    else if Eventq.is_empty q then raise Deadlock
    else begin
      Eventq.next_time_into q peek;
      let time = Array.unsafe_get peek 0 in
      (match until with
      | Some horizon when time > horizon -> raise (Horizon_reached horizon)
      | Some _ | None -> ());
      Array.unsafe_set clock 0 time;
      w.events <- w.events + 1;
      let thunk = if Eventq.next_is_lane q then Eventq.pop_lane q else Eventq.pop_heap q in
      thunk ();
      loop ()
    end
  in
  loop ()

(* One conservative window: dispatch strictly below [window_end] (and
   never beyond the horizon — those events stay queued for the
   coordinator to judge). Runs in parallel across shards; soundness
   comes from [post] guaranteeing no in-window send lands before
   [window_end]. *)
let run_window w ~window_end ~horizon =
  let q = w.q in
  let clock = w.clock in
  let peek = w.peek in
  let continue_ = ref true in
  while !continue_ do
    if w.main_done || w.failure <> None || Eventq.is_empty q then continue_ := false
    else begin
      Eventq.next_time_into q peek;
      let time = Array.unsafe_get peek 0 in
      if time >= window_end || time > horizon then continue_ := false
      else begin
        Array.unsafe_set clock 0 time;
        w.events <- w.events + 1;
        let thunk = if Eventq.next_is_lane q then Eventq.pop_lane q else Eventq.pop_heap q in
        thunk ()
      end
    end
  done

(* -- shard statistics -------------------------------------------------- *)

type shard_stat = {
  sh_shard : int;
  sh_events : int;
  sh_msgs_out : int;
  sh_msgs_in : int;
  sh_stall_s : float;
}

let last_stats = ref ([||] : shard_stat array)
let last_windows_count = ref 0
let last_shard_stats () = !last_stats
let last_windows () = !last_windows_count

let stat_of w =
  {
    sh_shard = w.shard;
    sh_events = w.events;
    sh_msgs_out = w.msgs_out;
    sh_msgs_in = w.msgs_in;
    sh_stall_s = w.stall_s;
  }

(* -- single-world run -------------------------------------------------- *)

let finish_single w result =
  last_windows_count := 0;
  last_stats := [| stat_of w |];
  (match w.failure with Some e -> raise e | None -> ());
  match !result with Some r -> r | None -> assert false

let run_single ~seed ~until ~lookahead main =
  let cur = Domain.DLS.get current_key in
  if !cur <> None then invalid_arg "Sim.Engine.run: already running";
  let w = make_world ~shard:0 ~nshards:1 ~lookahead ~seed in
  cur := Some w;
  start_registries ();
  Fun.protect
    ~finally:(fun () ->
      cur := None;
      finish_registries ())
  @@ fun () ->
  let result = ref None in
  spawn_main w main result;
  drive w ?until ();
  finish_single w result

let run ?(seed = 1) ?until main = run_single ~seed ~until ~lookahead:0. main

(* -- sharded run ------------------------------------------------------- *)

(* Cyclic barrier over a mutex + condition; the phase counter lets the
   same barrier be reused every window. The mutex hand-off is also the
   happens-before edge that publishes window results (outboxes, queue
   states, [ctl] fields) between domains. *)
type barrier = {
  bm : Mutex.t;
  bc : Condition.t;
  parties : int;
  mutable arrived : int;
  mutable phase : int;
}

let barrier_make parties = { bm = Mutex.create (); bc = Condition.create (); parties; arrived = 0; phase = 0 }

let barrier_wait b =
  Mutex.lock b.bm;
  let ph = b.phase in
  b.arrived <- b.arrived + 1;
  if b.arrived = b.parties then begin
    b.arrived <- 0;
    b.phase <- ph + 1;
    Condition.broadcast b.bc
  end
  else
    while b.phase = ph do
      Condition.wait b.bc b.bm
    done;
  Mutex.unlock b.bm

let timed_barrier w b =
  let t0 = Unix.gettimeofday () in
  barrier_wait b;
  w.stall_s <- w.stall_s +. (Unix.gettimeofday () -. t0)

type ctl = { mutable stop : bool; mutable window_end : float }

let run_sharded ?(seed = 1) ?until ?init ~shards ~lookahead main =
  if shards < 1 then invalid_arg "Sim.Engine.run_sharded: shards must be >= 1";
  if lookahead < 0. then invalid_arg "Sim.Engine.run_sharded: negative lookahead";
  if shards = 1 then
    (* Degenerate case: the exact single-world dispatch loop — traces
       are byte-identical with [run] (stream 0 = the unsharded RNG
       stream; [init] never applies below shard 1). *)
    run_single ~seed ~until ~lookahead main
  else begin
    if lookahead <= 0. then
      invalid_arg "Sim.Engine.run_sharded: lookahead must be positive with shards > 1";
    let cur = Domain.DLS.get current_key in
    if !cur <> None then invalid_arg "Sim.Engine.run: already running";
    let worlds = Array.init shards (fun k -> make_world ~shard:k ~nshards:shards ~lookahead ~seed) in
    let w0 = worlds.(0) in
    cur := Some w0;
    start_registries ();
    let result = ref None in
    spawn_main w0 main result;
    (match init with
    | None -> ()
    | Some f ->
        for k = 1 to shards - 1 do
          let w = worlds.(k) in
          let fid = w.next_fiber in
          w.next_fiber <- fid + 1;
          push_event w ~after:0. (fun () -> start_fiber w fid (fun () -> f ~shard:k))
        done);
    let horizon = match until with Some h -> h | None -> infinity in
    let bar = barrier_make shards in
    let c = { stop = false; window_end = 0. } in
    let windows = ref 0 in
    let stop_exn : exn option ref = ref None in
    let workers =
      Array.init (shards - 1) (fun i ->
          let w = worlds.(i + 1) in
          Domain.spawn (fun () ->
              let dcur = Domain.DLS.get current_key in
              dcur := Some w;
              let rec wloop () =
                timed_barrier w bar;
                (* A: window published (or stop) *)
                if not c.stop then begin
                  (try run_window w ~window_end:c.window_end ~horizon
                   with e -> if w.failure = None then w.failure <- Some e);
                  timed_barrier w bar;
                  (* B: window done *)
                  wloop ()
                end
              in
              wloop ();
              dcur := None))
    in
    (* Deterministic merge: gather every outbox, order by (arrival,
       source shard, source seq), and stamp destination-side sequence
       numbers in that order — identical in every same-seed run. *)
    let deliver_all () =
      let msgs = ref [] in
      Array.iter
        (fun w ->
          (match w.outbox with [] -> () | l -> msgs := List.rev_append l !msgs);
          w.outbox <- [])
        worlds;
      match !msgs with
      | [] -> ()
      | l ->
          let sorted =
            List.sort
              (fun a b ->
                if a.m_at < b.m_at then -1
                else if a.m_at > b.m_at then 1
                else if a.m_src <> b.m_src then Int.compare a.m_src b.m_src
                else Int.compare a.m_seq b.m_seq)
              l
          in
          List.iter
            (fun m ->
              let d = worlds.(m.m_dst) in
              let seq = d.next_seq in
              d.next_seq <- seq + 1;
              d.msgs_in <- d.msgs_in + 1;
              Eventq.push d.q m.m_at seq m.m_thunk)
            sorted
    in
    let first_failure () =
      let r = ref None in
      Array.iter (fun w -> if !r = None then match w.failure with Some e -> r := Some e | None -> ()) worlds;
      !r
    in
    let rec rounds () =
      deliver_all ();
      if w0.main_done then ()
      else
        match first_failure () with
        | Some e -> stop_exn := Some e
        | None ->
            let t_min = ref infinity in
            Array.iter
              (fun w -> if not (Eventq.is_empty w.q) then begin
                   let t = Eventq.next_time w.q in
                   if t < !t_min then t_min := t
                 end)
              worlds;
            if !t_min = infinity then stop_exn := Some Deadlock
            else if !t_min > horizon then stop_exn := Some (Horizon_reached horizon)
            else begin
              c.window_end <- !t_min +. lookahead;
              incr windows;
              timed_barrier w0 bar;
              (try run_window w0 ~window_end:c.window_end ~horizon
               with e -> if w0.failure = None then w0.failure <- Some e);
              timed_barrier w0 bar;
              rounds ()
            end
    in
    Fun.protect
      ~finally:(fun () ->
        c.stop <- true;
        barrier_wait bar;
        Array.iter Domain.join workers;
        last_windows_count := !windows;
        last_stats := Array.map stat_of worlds;
        cur := None;
        finish_registries ())
    @@ fun () ->
    rounds ();
    (match !stop_exn with Some e -> raise e | None -> ());
    match !result with Some r -> r | None -> assert false
  end
