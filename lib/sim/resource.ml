exception Failed of string

(* An all-float record stores its fields unboxed; in the mixed record
   below every accounting store would box a float. *)
type clock = { mutable busy_integral : float; mutable last_update : float }

type t = {
  name : string;
  capacity : int;
  mutable in_use : int;
  waiters : (bool -> unit) Queue.t;  (* resumed with [false] when the station fails *)
  clock : clock;
  mutable broken : bool;
}

let create ~name ~capacity () =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  {
    name;
    capacity;
    in_use = 0;
    waiters = Queue.create ();
    clock = { busy_integral = 0.; last_update = 0. };
    broken = false;
  }

let name t = t.name
let capacity t = t.capacity

let account t =
  let now = Engine.now () in
  let c = t.clock in
  c.busy_integral <- c.busy_integral +. (float_of_int t.in_use *. (now -. c.last_update));
  c.last_update <- now

let acquire t =
  if t.broken then raise (Failed t.name);
  if t.in_use < t.capacity && Queue.is_empty t.waiters then begin
    account t;
    t.in_use <- t.in_use + 1
  end
  else begin
    let ok = Engine.suspend (fun resume -> Queue.add resume t.waiters) in
    if not ok then raise (Failed t.name)
  end

let release t =
  if t.in_use = 0 then invalid_arg "Resource.release: not held";
  match Queue.take_opt t.waiters with
  | Some waiter ->
      (* Hand the server straight to the next fiber in line; [in_use]
         stays constant so no accounting boundary is needed. *)
      waiter true
  | None ->
      account t;
      t.in_use <- t.in_use - 1

let use t dt =
  acquire t;
  match Engine.sleep dt with
  | () -> release t
  | exception e ->
      release t;
      raise e

let fail t =
  if not t.broken then begin
    t.broken <- true;
    (* Waiters will never be served: wake them into the failure path. *)
    let rec drain () =
      match Queue.take_opt t.waiters with
      | Some waiter ->
          waiter false;
          drain ()
      | None -> ()
    in
    drain ()
  end

let repair t = t.broken <- false
let failed t = t.broken

let queue_length t = Queue.length t.waiters

let busy_time t =
  account t;
  t.clock.busy_integral
