(** Deployment helper: builds a complete CORFU instance inside the
    simulation — storage nodes grouped into replica chains, a
    sequencer, the auxiliary — and hands out clients.

    The default geometry follows the paper's testbed: chains of
    length 2 ("9×2 configuration", §6). Any server count works when
    the per-chain lengths are given explicitly with [~chains]. *)

type t

(** [create ?params ?chain_length ?chains ?shards ~servers ()] brings
    up the log with a single-segment (flat) projection. By default the
    servers split into uniform chains of [chain_length] (default 2);
    [~chains] gives explicit per-chain lengths instead, so any server
    count — including uneven chains — forms a valid segment.

    [shards] (default 1) records the engine shard count this cluster
    is deployed under; see {!shard_of_host} for the placement map.
    @raise Invalid_argument when the geometry does not cover exactly
    [servers] nodes; the message names the offending segment. *)
val create :
  ?params:Sim.Params.t ->
  ?chain_length:int ->
  ?chains:int list ->
  ?shards:int ->
  servers:int ->
  unit ->
  t

val params : t -> Sim.Params.t
val net : t -> Sim.Net.t

(** Engine shard count this cluster was created for (1 = unsharded). *)
val shards : t -> int

(** [shard_of_host t name] is the advisory host → engine-shard
    placement: storage node [i] maps to shard [i mod shards]; every
    other host (sequencer, auxiliary, reconfig agent, clients) maps to
    shard 0, where the corfu control/data planes — and the
    process-global telemetry registries they feed — always execute.
    The map steers co-location of modeled load (population stations)
    and the [cluster-info] report; it does not move RPC execution off
    shard 0. *)
val shard_of_host : t -> string -> int
val auxiliary : t -> Auxiliary.t

(** Every storage node currently in the projection (all segments). *)
val storage_nodes : t -> Storage_node.t array

val sequencer : t -> Sequencer.t

(** [new_client t ~name] registers a fresh application-server host and
    returns a log client bound to it. *)
val new_client : t -> name:string -> Client.t

(** [client_on t host] binds a log client to an existing host (so an
    application server and its log client share NIC and CPU). *)
val client_on : t -> Sim.Net.host -> Client.t

(** [replace_sequencer t] runs the §5 reconfiguration: seal the old
    sequencer and every storage node at the next epoch, rebuild the
    tail and per-stream backpointer state by scanning the log
    backward — stopping early at the most recent sequencer checkpoint
    when the scribe is running, or at the retired boundary — and
    install a fresh sequencer in a new projection. Returns the new
    epoch. Clients discover the change through sealed errors and retry
    transparently. *)
val replace_sequencer : t -> Types.epoch

(** [start_checkpoint_scribe t ~interval_us] runs the §5 optimization:
    a background task that periodically snapshots the sequencer's
    backpointer state into the log on a reserved stream
    ({!Seq_checkpoint}), bounding the rebuild scan to roughly the
    append volume of one interval. *)
val start_checkpoint_scribe : t -> interval_us:float -> unit

(** Entries read by the most recent {!replace_sequencer} rebuild. *)
val last_rebuild_scan : t -> int

(** {2 Storage-node failure recovery (§2.2)} *)

(** [replace_storage_node t ~dead] swaps a failed chain member for a
    freshly provisioned spare: seal the sequencer and every storage
    node at the next epoch (the sequencer survives — allocation state
    is not lost), copy the head-most surviving replica's prefix onto
    the spare ([copy_window] cells in flight, default 16) for {e every}
    segment the dead member served, substitute the spare into each of
    the dead member's chain slots, and install the new projection.
    Clients ride through on sealed errors and retry their in-flight
    offsets under the new view. Returns the new epoch.

    Data that reached {e only} the dead node (the head of a torn
    append) is unrecoverable and resolves as a hole, matching the
    real system's failure model.

    If [dead] is no longer in the projection when the operation runs —
    a concurrent recovery (the failure monitor racing a scheduled
    fault action) already replaced it — the call is a no-op and
    returns the current epoch. *)
val replace_storage_node : ?copy_window:int -> t -> dead:Storage_node.t -> Types.epoch

(** One completed storage-node recovery, for availability reports. *)
type recovery = {
  rec_epoch : Types.epoch;
  rec_dead : string;
  rec_spare : string;
  rec_started_us : float;  (** seal began *)
  rec_installed_us : float;  (** new projection accepted *)
  rec_copied_entries : int;  (** cells copied onto the spare *)
  rec_copied_bytes : int;  (** rebuild volume *)
}

(** Completed recoveries, oldest first. *)
val recoveries : t -> recovery list

(** {2 Online scale-out / scale-in (§2.2 segment reconfiguration)}

    The log changes shape {e without copying any data}: the sequencer
    is sealed at the next epoch and its tail at the seal point becomes
    the boundary; every storage node is sealed (so stale clients
    cannot map a new-segment offset through the old geometry); the old
    tail segment is bounded at the boundary and a new unbounded tail
    segment opens over the new node set. Old offsets keep resolving
    through the segment that wrote them. *)

(** [scale_out t ~add_servers] provisions [add_servers] fresh storage
    nodes (pre-sealed at the new epoch) and opens a new tail segment
    striped over the old tail's nodes {e plus} the fresh ones —
    [chain_length] (default: the old tail's head-chain length) or
    explicit [~chains] set the new geometry. Returns the new epoch. *)
val scale_out : ?chain_length:int -> ?chains:int list -> t -> add_servers:int -> Types.epoch

(** [scale_in t ~remove_servers] opens a new tail segment over all but
    the last [remove_servers] of the old tail's members. The removed
    nodes keep serving the bounded segments that map onto them until
    {!retire_trimmed_segments} releases them.
    @raise Invalid_argument unless [0 < remove_servers <] the old
    tail's member count. *)
val scale_in : ?chain_length:int -> ?chains:int list -> t -> remove_servers:int -> Types.epoch

(** [retire_trimmed_segments t] drops every fully prefix-trimmed
    segment from the front of the map (contiguity allows only a prefix
    to go) and releases nodes no remaining segment maps onto. No
    sealing: live offsets keep their mapping, and a stale client
    touching a retired offset reads [Trimmed] from the old nodes — the
    same answer the new map gives. Returns the new epoch, or [None]
    when the first segment is not yet fully trimmed. *)
val retire_trimmed_segments : t -> Types.epoch option

type scale_kind = Scale_out | Scale_in | Segments_retired

(** One completed segment-map reconfiguration. *)
type scale_event = {
  sc_epoch : Types.epoch;
  sc_kind : scale_kind;
  sc_boundary : Types.offset;
      (** seal point: first offset of the new tail segment (for
          [Segments_retired], the new first live offset) *)
  sc_servers_before : int;
  sc_servers_after : int;
  sc_segments : int;  (** segments in the installed map *)
  sc_released : string list;  (** nodes dropped from the cluster *)
  sc_started_us : float;
  sc_installed_us : float;
}

(** Completed scale events, oldest first. *)
val scale_events : t -> scale_event list

(** {2 Reconfiguration serialization and failpoints}

    All reconfiguration operations ({!replace_sequencer},
    {!replace_storage_node}, {!scale_out}, {!scale_in},
    {!retire_trimmed_segments}) serialize on a per-cluster cooperative
    lock: concurrent callers — the failure monitor racing a scheduled
    fault-plan action, say — queue and re-read the projection once
    they hold it, so the auxiliary never sees two proposals derived
    from the same predecessor. *)

(** Deliberate protocol breakers for the simulation fuzzer's
    sensitivity check (DESIGN.md §9): each flag disables one step the
    correctness argument depends on, and the fuzzer's oracles must
    catch the consequences — proving they are live, not vacuous.
    Process-global; {!reset_failpoints} between runs. *)
type failpoints = {
  mutable fp_skip_rebuild_scan : bool;
      (** {!replace_sequencer} skips the backward scan: the new
          sequencer has the right tail but empty backpointer state *)
  mutable fp_forget_seal_tail : bool;
      (** {!replace_sequencer} derives the new tail from storage
          tails only, re-granting in-flight range grants (the
          pre-hardening bug, kept as a regression failpoint) *)
  mutable fp_skip_storage_seal : bool;
      (** reconfigurations collect tails without sealing, leaving
          stale-epoch clients able to write through the old view *)
  mutable fp_blind_commit_apply : bool;
      (** runtime playback applies commit writes without waiting for
          (or recording) the commit/abort decision — the isolation
          leak the ReadCommitted spec machine exists to catch *)
  mutable fp_skip_decision_record : bool;
      (** [Runtime.end_tx] returns without appending the decision
          record a [needs_decision] commit owes its consumers — the
          generator crashing between the commit and decision appends
          (§4.1, Failure Handling), so consumers lacking the read set
          must reconstruct the outcome from the log *)
  mutable fp_stall_reconfig : bool;
      (** {!replace_sequencer} wedges right after starting: the seal
          happens but no new epoch ever installs, so the
          ReconfigTermination spec machine's deadline fires *)
}

val failpoints : failpoints
val reset_failpoints : unit -> unit

(** [enable_failpoint name] sets one flag by its kebab-case name
    (["skip-rebuild-scan"], ["forget-seal-tail"],
    ["skip-storage-seal"], ["blind-commit-apply"],
    ["skip-decision-record"], ["stall-reconfig"]) — the [tangoctl fuzz --failpoint] hook.
    @raise Invalid_argument on an unknown name. *)
val enable_failpoint : string -> unit

(** [start_failure_monitor t] spawns the detector fiber: every
    [probe_interval_us] (default 20 ms) it probes each storage node of
    the current projection (every segment) with a
    [probe_timeout_us]-bounded read (default 10 ms); a member failing
    two consecutive probes is declared dead and replaced via
    {!replace_storage_node}. A sealed answer counts as alive, so the
    monitor never fires on reconfiguration itself. *)
val start_failure_monitor : ?probe_interval_us:float -> ?probe_timeout_us:float -> t -> unit
