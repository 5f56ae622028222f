(* Benchmark-side spans for the traced run.

   Spans wrap the benchmark's own calls into each layer's public
   functions: a root span per arrival (from its due time to its
   completion) and one child per call. Every span carries the arrival's
   operation id, so the spans of one arrival can be joined. Recording
   only reads the virtual clock and appends to an in-memory array, so a
   traced run schedules exactly like an untraced one; the array is
   written out once, after the run. *)

type t = {
  id : int;
  op : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start : float;  (** virtual µs *)
  mutable stop : float;  (** virtual µs; nan while open *)
  mutable outcome : string;
}

let enabled = ref false
let dummy = { id = -1; op = -1; parent = -1; name = ""; start = 0.; stop = 0.; outcome = "" }
let store = ref (Array.make 0 dummy)
let count = ref 0

let reset ~on =
  enabled := on;
  store := Array.make (if on then 1024 else 0) dummy;
  count := 0

let open_span ~op ~parent ~start name =
  if !count = Array.length !store then begin
    let bigger = Array.make (2 * !count) dummy in
    Array.blit !store 0 bigger 0 !count;
    store := bigger
  end;
  let id = !count in
  !store.(id) <- { id; op; parent; name; start; stop = nan; outcome = "" };
  incr count;
  id

(* [root ~op ~due name] opens an arrival's root span at its due time;
   returns -1 when tracing is off. *)
let root ~op ~due name = if !enabled then open_span ~op ~parent:(-1) ~start:due name else -1

let close ?(outcome = "") id =
  if id >= 0 then begin
    let s = !store.(id) in
    s.stop <- Sim.Engine.now ();
    s.outcome <- outcome
  end

(* [wrap ~op ~parent name f] runs [f] inside a child span of [parent].
   [outcome] labels the span with its result. *)
let wrap ?outcome ~op ~parent name f =
  if not !enabled then f ()
  else begin
    let id = open_span ~op ~parent ~start:(Sim.Engine.now ()) name in
    let r = f () in
    close ?outcome:(Option.map (fun o -> o r) outcome) id;
    r
  end

let all () = Array.sub !store 0 !count

(* Durations (µs) of the closed spans called [name]. *)
let durations name =
  let s = Sim.Stats.Series.create () in
  Array.iter
    (fun sp ->
      if sp.name = name && not (Float.is_nan sp.stop) then
        Sim.Stats.Series.add s (sp.stop -. sp.start))
    (all ());
  s

let count_named ~outcome name =
  Array.fold_left
    (fun n sp -> if sp.name = name && sp.outcome = outcome then n + 1 else n)
    0 (all ())

(* One tab-separated line per span, in open order. *)
let write path =
  let oc = open_out path in
  output_string oc "id\top\tparent\tname\tstart_us\tend_us\toutcome\n";
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%s\n" s.id s.op s.parent s.name s.start s.stop
        s.outcome)
    (all ());
  close_out oc
