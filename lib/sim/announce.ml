(* Lightweight instrumentation bus for online temporal monitors.

   Producers in the corfu/tango layers announce protocol milestones
   (append acked, commit decided/applied, reconfig start/finish, fault
   inject/repair); spec machines in the harness subscribe and evaluate
   liveness/isolation properties in virtual time.  The bus is inert by
   default: producers guard every emission with [active ()], so a run
   with no subscribers allocates nothing on the hot path. *)

type event =
  | Append_acked of { client : string; offset : int; streams : int list }
  | Offset_readable of { client : string; offset : int }
  | Tx_begin of { client : string }
  | Tx_finish of { client : string; committed : bool }
  | Commit_decided of { client : string; pos : int; committed : bool }
  | Commit_applied of { client : string; pos : int }
  | Decision_watchdog of { client : string; pos : int; scanned : int }
  | Reconfig_started of { kind : string }
  | Reconfig_installed of { kind : string; epoch : int }
  | Fault_injected of { key : string }
  | Fault_repaired of { key : string }
  | Custom_fault of { name : string }

(* Subscribers live for one run: the engine drops them when it starts
   a run and again when the run ends, so none outlives its world. *)
let subs : (event -> unit) array ref = ref [||]
let reset () = subs := [||]
let () = Engine.on_run ~start:reset ~finish:reset

let subscribe f = subs := Array.append !subs [| f |]

let active () = Array.length !subs > 0

let emit ev =
  let subs = !subs in
  for i = 0 to Array.length subs - 1 do
    subs.(i) ev
  done
