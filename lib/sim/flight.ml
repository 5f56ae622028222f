(* Incident flight recorder: a bounded per-host ring of recent
   structured events (span closes, metric writes, fault-plane actions,
   SLO alerts). Recording is one branch when disabled; when enabled it
   writes into preallocated parallel arrays (no per-event record — a
   mixed record with mutable float fields would box every store).
   [snapshot] freezes the rings into JSON + Chrome-trace strings at
   incident time, because the rings keep rolling afterwards. *)

type kind = Span_close | Metric | Fault | Alert | Note

let kind_code = function Span_close -> 0 | Metric -> 1 | Fault -> 2 | Alert -> 3 | Note -> 4
let kind_name = function 0 -> "span" | 1 -> "metric" | 2 -> "fault" | 3 -> "alert" | _ -> "note"

type ring = {
  r_host : string;
  times : float array;
  values : float array;
  kinds : int array;
  names : string array;
  mutable head : int;  (* next write slot *)
  mutable total : int;  (* events ever recorded on this host *)
}

type snap = { sn_reason : string; sn_time : float; sn_json : string; sn_trace : string }

type state = {
  rings : (string, ring) Hashtbl.t;
  mutable snaps : snap list;  (* newest first *)
  mutable n_snaps : int;
}

let fresh () = { rings = Hashtbl.create 16; snaps = []; n_snaps = 0 }
let current = ref (fresh ())
let state () = !current
let reset () = current := fresh ()

(* The rings and snapshots are plain data; nothing to drop at the end
   of a run. *)
let () = Engine.on_run ~start:reset ~finish:ignore

(* Sticky configuration, like the Span enabled flag: survives engine
   resets so a harness can arm the recorder once for many runs. *)
let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let ring_cap = ref 256
let max_snaps = ref 16

let configure ?cap ?snapshots () =
  (match cap with
  | Some c -> if c <= 0 then invalid_arg "Flight.configure: cap must be positive" else ring_cap := c
  | None -> ());
  match snapshots with
  | Some s ->
      if s <= 0 then invalid_arg "Flight.configure: snapshots must be positive" else max_snaps := s
  | None -> ()

let new_ring st host =
  let cap = !ring_cap in
  let r =
    {
      r_host = host;
      times = Array.make cap 0.;
      values = Array.make cap 0.;
      kinds = Array.make cap 0;
      names = Array.make cap "";
      head = 0;
      total = 0;
    }
  in
  Hashtbl.replace st.rings host r;
  r

let record ~host kind ~name ~value =
  if !enabled_flag then begin
    let st = state () in
    let r =
      match Hashtbl.find st.rings host with r -> r | exception Not_found -> new_ring st host
    in
    let i = r.head in
    r.times.(i) <- Engine.now ();
    r.values.(i) <- value;
    r.kinds.(i) <- kind_code kind;
    r.names.(i) <- name;
    r.head <- (if i + 1 = Array.length r.times then 0 else i + 1);
    r.total <- r.total + 1
  end

let note ~host name = record ~host Note ~name ~value:0.

let events_recorded () =
  Hashtbl.fold (fun _ r acc -> acc + r.total) (state ()).rings 0

(* -- snapshot rendering ------------------------------------------------ *)

let sorted_rings st =
  Hashtbl.fold (fun _ r acc -> r :: acc) st.rings []
  |> List.sort (fun a b -> compare a.r_host b.r_host)

(* Iterate a ring oldest -> newest. *)
let ring_iter r f =
  let cap = Array.length r.times in
  let len = if r.total < cap then r.total else cap in
  let first = if r.total < cap then 0 else r.head in
  for k = 0 to len - 1 do
    let i = (first + k) mod cap in
    f r.times.(i) r.kinds.(i) r.names.(i) r.values.(i)
  done

let render_json st ~reason ~time =
  let hosts =
    List.map
      (fun r ->
        let events = ref [] in
        ring_iter r (fun t k n v ->
            events :=
              Jout.obj
                [
                  ("t_us", Jout.flt t);
                  ("kind", Jout.str (kind_name k));
                  ("name", Jout.str n);
                  ("value", Jout.flt v);
                ]
              :: !events);
        Jout.obj
          [
            ("host", Jout.str r.r_host);
            ("recorded", string_of_int r.total);
            ("events", Jout.arr (List.rev !events));
          ])
      (sorted_rings st)
  in
  Jout.obj
    [ ("reason", Jout.str reason); ("t_us", Jout.flt time); ("hosts", Jout.arr hosts) ]

let render_trace st ~reason ~time =
  let rings = sorted_rings st in
  let meta =
    List.mapi
      (fun p r ->
        Jout.obj
          [
            ("name", Jout.str "process_name");
            ("ph", Jout.str "M");
            ("pid", string_of_int p);
            ("tid", "0");
            ("args", Jout.obj [ ("name", Jout.str r.r_host) ]);
          ])
      rings
  in
  let events = ref [] in
  List.iteri
    (fun p r ->
      ring_iter r (fun t k n v ->
          events :=
            Jout.obj
              [
                ("name", Jout.str n);
                ("ph", Jout.str "i");
                ("s", Jout.str "t");
                ("pid", string_of_int p);
                ("tid", "0");
                ("ts", Jout.flt t);
                ( "args",
                  Jout.obj [ ("kind", Jout.str (kind_name k)); ("value", Jout.flt v) ] );
              ]
            :: !events))
    rings;
  let incident =
    Jout.obj
      [
        ("name", Jout.str ("incident: " ^ reason));
        ("ph", Jout.str "i");
        ("s", Jout.str "g");
        ("pid", "0");
        ("tid", "0");
        ("ts", Jout.flt time);
        ("args", Jout.obj [ ("reason", Jout.str reason) ]);
      ]
  in
  Jout.obj [ ("traceEvents", Jout.arr (meta @ List.rev !events @ [ incident ])) ]

let snapshot ~reason =
  if !enabled_flag then begin
    let st = state () in
    if st.n_snaps < !max_snaps then begin
      (* Oracle checks run inside the engine, but terminal blame (a
         deadlock, a horizon overrun) is assigned after the run has
         unwound — stamp those snapshots at 0. *)
      let time = try Engine.now () with Invalid_argument _ -> 0. in
      let sn =
        {
          sn_reason = reason;
          sn_time = time;
          sn_json = render_json st ~reason ~time;
          sn_trace = render_trace st ~reason ~time;
        }
      in
      st.snaps <- sn :: st.snaps;
      st.n_snaps <- st.n_snaps + 1
    end
  end

let snapshots () = List.rev (state ()).snaps
let snapshot_count () = (state ()).n_snaps

let dump_json () =
  let st = state () in
  Jout.obj
    [
      ("snapshots", Jout.arr (List.rev_map (fun sn -> sn.sn_json) st.snaps));
    ]
