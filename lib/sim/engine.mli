(** Deterministic discrete-event scheduler with cooperative fibers,
    optionally sharded across OCaml 5 domains.

    The engine drives a virtual clock (microseconds, [float]) and a
    banded priority queue of events. Simulated processes are {e
    fibers}: ordinary OCaml functions that may call {!sleep} and
    {!suspend}, implemented with OCaml 5 effect handlers. Within a
    shard exactly one fiber runs at a time; there is no preemption, so
    plain mutable state needs no locking. Ties in the event queue are
    broken by insertion order, making every run reproducible.

    {!run} executes everything in one world on the calling domain —
    the classic mode, unchanged. {!run_sharded} partitions the event
    space into per-shard worlds (own event queue, RNG stream, fiber
    table) executed on parallel domains with {e conservative lookahead
    synchronization}: virtual time advances in windows of [lookahead]
    µs past the global minimum event time; within a window shards
    dispatch independently, and cross-shard messages ({!post}) — which
    can never land inside the window, because every link imposes at
    least [lookahead] of delay — are merged at a deterministic barrier
    between windows. Same seed, same shard count ⇒ byte-identical
    traces, regardless of how the OS schedules the domains.

    A simulation ends when the main fiber (the function passed to
    {!run}/{!run_sharded}) returns. Fibers still blocked at that point
    — servers waiting for requests that will never come — are
    discarded, on every shard, and the process-global registries drop
    every closure they hold into the finished world ({!on_run}). *)

(** Raised by {!run} when the main fiber is blocked but no events
    remain on any shard: every remaining fiber waits on something
    nobody will deliver. *)
exception Deadlock

(** Raised by {!run} when the [until] horizon passes before the main
    fiber completes. *)
exception Horizon_reached of float

(** [run ?seed ?until main] creates a fresh simulation world, runs
    [main] as the first fiber, and drives events until [main] returns;
    its result is returned. [seed] (default 1) seeds the world's
    {!Rng.t}. [until] bounds virtual time.

    Nested calls to [run] are not allowed. *)
val run : ?seed:int -> ?until:float -> (unit -> 'a) -> 'a

(** [run_sharded ~shards ~lookahead main] is {!run} over [shards]
    parallel worlds. [main] runs as the first fiber of shard 0 on the
    calling domain — so code touching the process-global registries
    ({!Metrics}, {!Span}, {!Timeseries}, {!Flight}) must stay on shard
    0, where it runs exactly as under {!run}. [init ~shard] (if given)
    is spawned at time 0 as the first fiber of every shard >= 1 on its
    own domain; fibers there must confine themselves to shard-local
    state and {!post}.

    [lookahead] is the conservative window in µs: no cross-shard
    message may arrive sooner (see {!post}, {!Net.lookahead}). It must
    be positive when [shards > 1]. With [shards = 1] the call is
    exactly {!run} — same dispatch loop, same RNG stream
    ([Rng.create_stream seed ~stream:0] = [Rng.create seed]) — so
    single-shard traces reproduce unsharded ones byte for byte.

    Determinism contract: same [seed], [shards], [lookahead], and
    program ⇒ identical event orders on every shard and identical
    results, independent of domain scheduling. Shard RNG streams are
    decorrelated per shard, window boundaries derive only from virtual
    time, and merged messages are ordered by (arrival time, source
    shard, source sequence). *)
val run_sharded :
  ?seed:int ->
  ?until:float ->
  ?init:(shard:int -> unit) ->
  shards:int ->
  lookahead:float ->
  (unit -> 'a) ->
  'a

(** [now ()] is the current virtual time in microseconds.
    @raise Invalid_argument outside of {!run}. *)
val now : unit -> float

(** [rng ()] is the calling shard's generator. *)
val rng : unit -> Rng.t

(** [sleep dt] suspends the calling fiber for [dt] microseconds
    (clamped to 0). *)
val sleep : float -> unit

(** [yield ()] reschedules the calling fiber at the current time,
    letting other ready fibers run first. *)
val yield : unit -> unit

(** A resumer: call it exactly once to wake the suspended fiber with a
    value. Calling it twice raises [Invalid_argument]. *)
type 'a resumer = 'a -> unit

(** [suspend register] parks the calling fiber and hands a {!resumer}
    to [register]. The fiber resumes (at the virtual time of the
    resumer call) with the value passed to the resumer. *)
val suspend : ('a resumer -> unit) -> 'a

(** [spawn ?at f] schedules [f] as a new fiber of the calling shard at
    time [at] (default now). Exceptions escaping a fiber abort the
    whole simulation: they are re-raised from {!run}.
    @raise Invalid_argument if [at] is in the past — a fiber cannot
    start before the clock. *)
val spawn : ?at:float -> (unit -> unit) -> unit

(** [fiber_id ()] identifies the calling fiber; ids are unique within
    a shard. The main fiber has id 0. *)
val fiber_id : unit -> int

(** [schedule ~after f] runs the thunk [f] (not a fiber: it must not
    sleep or suspend) after [after] microseconds, on the calling
    shard. *)
val schedule : after:float -> (unit -> unit) -> unit

(** [post ~shard ?after f] runs the thunk [f] (not a fiber — spawn
    from inside it for fiber work) on shard [shard] after [after] µs
    (default: the lookahead). Same-shard posts are plain {!schedule}s.
    Cross-shard posts become timestamped messages delivered at the
    next merge barrier; they require [after >= lookahead] — the
    conservative-synchronization contract.
    @raise Invalid_argument on an unknown shard or an [after] below
    the lookahead for a cross-shard post. *)
val post : shard:int -> ?after:float -> (unit -> unit) -> unit

(** [shard_id ()] is the calling shard's index; 0 under plain {!run}. *)
val shard_id : unit -> int

(** [shard_count ()] is the number of shards in the running world; 1
    under plain {!run}. *)
val shard_count : unit -> int

(** [lookahead ()] is the running world's lookahead window in µs; 0
    under plain {!run}. *)
val lookahead : unit -> float

(** [events_dispatched ()] is the number of events the calling shard
    has dispatched so far — the numerator of the events-per-wall-second
    throughput metric the bench suite gates on.
    @raise Invalid_argument outside of {!run}. *)
val events_dispatched : unit -> int

(** [on_run ~start ~finish] registers a process-global registry that
    outlives runs ({!Metrics}, {!Timeseries}, {!Slo}, ...). Every
    {!run}/{!run_sharded} calls each [start] before [main] runs, so
    the registry begins a fresh generation, and each [finish] once the
    run has ended (returned or raised). Run-lifecycle contract: after
    [finish] a registry holds only recorded data — no closures, fiber
    resumers or component handles from the finished world — so the
    world can be collected while post-run readers still print the same
    bytes. Registries call this once, at module initialisation. *)
val on_run : start:(unit -> unit) -> finish:(unit -> unit) -> unit

(** {2 Post-run shard statistics}

    Readable after {!run}/{!run_sharded} returns (or raises); they
    describe the most recently finished run. *)

type shard_stat = {
  sh_shard : int;
  sh_events : int;  (** events dispatched by this shard *)
  sh_msgs_out : int;  (** cross-shard messages sent *)
  sh_msgs_in : int;  (** cross-shard messages delivered *)
  sh_stall_s : float;
      (** real seconds this shard's domain spent waiting at merge
          barriers — the lookahead-efficiency signal *)
}

(** One entry per shard (a single entry after plain {!run}). *)
val last_shard_stats : unit -> shard_stat array

(** Number of synchronization windows the last sharded run used (0
    after plain {!run}). *)
val last_windows : unit -> int
