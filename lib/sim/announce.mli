(** Instrumentation bus for online temporal monitors.

    Protocol layers announce milestones as they happen in virtual
    time; harness-level spec machines subscribe and check temporal
    properties (liveness deadlines, isolation invariants) {e during}
    a run instead of after it.

    Contract for producers: guard every emission with {!active} —

    {[ if Sim.Announce.active () then Sim.Announce.emit (...) ]}

    so that runs without subscribers pay one branch and zero
    allocation per milestone.  Subscribers run synchronously at the
    emission point, inside the emitting fiber: they must not block,
    sleep, or perform I/O.

    The registry is process-global; subscribers live for one run and
    are dropped when it ends ({!Engine.on_run}). *)

type event =
  | Append_acked of { client : string; offset : int; streams : int list }
      (** The chain ack for [offset] reached [client]; the append is
          durable on every replica and was issued on [streams]. *)
  | Offset_readable of { client : string; offset : int }
      (** A resolved read of [offset] returned data at [client]. *)
  | Tx_begin of { client : string }
  | Tx_finish of { client : string; committed : bool }
  | Commit_decided of { client : string; pos : int; committed : bool }
      (** [client]'s runtime recorded the commit/abort verdict for the
          commit record at log position [pos]. *)
  | Commit_applied of { client : string; pos : int }
      (** [client]'s playback applied the writes of the commit at
          [pos] to its hosted views. *)
  | Decision_watchdog of { client : string; pos : int; scanned : int }
      (** No decision record for the commit at [pos] reached [client]
          in time, so it reconstructed the outcome from the log,
          decoding [scanned] entries of the read-set streams (§4.1,
          Failure Handling). *)
  | Reconfig_started of { kind : string }
      (** A seal/scale/replace operation of [kind] began. *)
  | Reconfig_installed of { kind : string; epoch : int }
      (** The operation installed projection [epoch]. *)
  | Fault_injected of { key : string }
      (** A repairable fault keyed [key] (e.g. ["crash:host"],
          ["partition"]) took effect. *)
  | Fault_repaired of { key : string }  (** The fault keyed [key] was repaired. *)
  | Custom_fault of { name : string }
      (** A named custom fault-plan action ran (takeovers, scaling,
          SSD events); classification is up to the subscriber. *)

val subscribe : (event -> unit) -> unit
(** Register a synchronous listener for the current engine run. *)

val active : unit -> bool
(** [true] iff at least one subscriber is registered. *)

val emit : event -> unit
(** Deliver [ev] to all subscribers, in subscription order. *)

val reset : unit -> unit
(** Drop all subscribers (tests). *)
