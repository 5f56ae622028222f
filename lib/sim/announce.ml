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

type state = { born : int; mutable subs : (event -> unit) array }

let fresh ~born = { born; subs = [||] }
let current = ref (fresh ~born:0)

let state () =
  let rc = Engine.run_count () in
  if !current.born <> rc then current := fresh ~born:rc;
  !current

let reset () = current := fresh ~born:(Engine.run_count ())

let subscribe f =
  let st = state () in
  st.subs <- Array.append st.subs [| f |]

let active () = Array.length (state ()).subs > 0

let emit ev =
  let st = state () in
  for i = 0 to Array.length st.subs - 1 do
    st.subs.(i) ev
  done
