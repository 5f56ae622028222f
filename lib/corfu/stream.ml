type t = {
  cl : Client.t;
  sid : Types.stream_id;
  mutable offsets : int array;  (* ascending member offsets *)
  mutable len : int;
  mutable cursor : int;
  mutable horizon : Types.offset;  (* membership complete below this *)
  from : Types.offset;  (* offsets below this are never members *)
  mutable sync_read_count : int;
  mutable trim_gap : bool;  (* reclaimed history was skipped *)
  mutable prefetch_window : int;  (* adapts between params bounds *)
  mutable hit_run : int;  (* consecutive cache hits since last miss *)
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let attach ?(from = 0) cl sid =
  {
    cl;
    sid;
    offsets = Array.make 64 0;
    len = 0;
    cursor = 0;
    horizon = 0;
    from;
    sync_read_count = 0;
    trim_gap = false;
    prefetch_window = (Client.params cl).Sim.Params.prefetch_min;
    hit_run = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let append t payload = Client.append t.cl ~streams:[ t.sid ] payload
let pending t = t.len - t.cursor
let sync_reads t = t.sync_read_count
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let has_trim_gap t = t.trim_gap
let clear_trim_gap t = t.trim_gap <- false

let known_max t = if t.len > 0 then t.offsets.(t.len - 1) else t.from - 1

let push_members t members =
  (* [members] is the set of newly discovered offsets, any order. *)
  let arr = Array.of_list members in
  Array.sort Int.compare arr;
  let n = Array.length arr in
  if n > 0 then begin
    if t.len + n > Array.length t.offsets then begin
      let bigger = Array.make (max (2 * Array.length t.offsets) (t.len + n)) 0 in
      Array.blit t.offsets 0 bigger 0 t.len;
      t.offsets <- bigger
    end;
    Array.blit arr 0 t.offsets t.len n;
    t.len <- t.len + n
  end

(* The prefetch window adapts to the observed cache miss rate: a miss
   means the fixed lookahead was not deep enough to hide the log's
   read latency, so the window doubles (up to [prefetch_max]); a long
   run of hits — 4 windows' worth — means the cache is absorbing the
   read stream comfortably, so it halves back toward
   [prefetch_min]. *)
let note_hit t =
  t.cache_hits <- t.cache_hits + 1;
  t.hit_run <- t.hit_run + 1;
  let floor = (Client.params t.cl).Sim.Params.prefetch_min in
  if t.hit_run >= 4 * t.prefetch_window && t.prefetch_window > floor then begin
    t.prefetch_window <- max floor (t.prefetch_window / 2);
    t.hit_run <- 0
  end

let note_miss t =
  t.cache_misses <- t.cache_misses + 1;
  t.hit_run <- 0;
  let cap = (Client.params t.cl).Sim.Params.prefetch_max in
  if t.prefetch_window < cap then t.prefetch_window <- min cap (2 * t.prefetch_window)

(* Fetch the entry at [off] through the client-wide cache, resolving
   holes (blocking with backoff, then filling). *)
let resolve t off =
  match Client.cached t.cl off with
  | Some e ->
      note_hit t;
      Client.Data e
  | None ->
      note_miss t;
      t.sync_read_count <- t.sync_read_count + 1;
      Client.read_shared t.cl off

(* Playback pipelining: before blocking on the entry at index [idx],
   launch fetches for the next window of member offsets so log reads
   overlap instead of paying one round trip each. *)
let prefetch_from t idx =
  let stop = min t.len (idx + t.prefetch_window) in
  for i = idx to stop - 1 do
    Client.prefetch t.cl t.offsets.(i)
  done

let header_for t off entry =
  let k = (Client.params t.cl).Sim.Params.backpointer_k in
  Stream_header.find (Stream_header.decode_block ~k ~current:off entry.Types.headers) t.sid

(* Backward walk from the sequencer's last-K pointers down to what we
   already know. Strides K entries per read in the common case; junk
   degrades to a linear backward scan (§5, Failure Handling). *)
let sync_with_inner t ~tail ~ptrs =
    let floor = known_max t in
    let members = ref [] in
    let lowest = ref max_int in
    let junk = ref [] in
    (* The walk moves down the log, so a candidate below every member
       noted so far is new; only the rest need a membership scan. *)
    let note off =
      if off > floor && (off < !lowest || not (List.mem off !members)) then begin
        members := off :: !members;
        if off < !lowest then lowest := off;
        true
      end
      else false
    in
    let rec walk ptrs =
      (* [ptrs]: member candidates, most recent first. Register all of
         them, then read only the oldest to continue the chain — unless
         the list already reaches known history: a last-K list holds
         consecutive members, so it then names every new one. *)
      let fresh = List.filter note ptrs in
      if not (List.exists (fun p -> p <= floor) ptrs) then
        match List.rev fresh with
        | [] -> ()
        | oldest :: _ -> follow oldest
    and follow off =
      match resolve t off with
      | Client.Data e -> (
          match header_for t off e with
          | Some h -> walk h.Stream_header.backptrs
          | None ->
              (* An offset the sequencer issued for this stream whose
                 winning entry carries no header for it: the slot was
                 lost to a competing append and re-used; treat like
                 junk and rescan. *)
              junk := off :: !junk;
              scan_backward (off - 1))
      | Client.Junk ->
          junk := off :: !junk;
          scan_backward (off - 1)
      | Client.Trimmed ->
          (* History below here is reclaimed; a checkpoint must cover
             it before the view is complete. *)
          t.trim_gap <- true;
          junk := off :: !junk
      | Client.Unwritten -> assert false (* read_resolved never returns it *)
    and scan_backward off =
      if off > floor then
        match resolve t off with
        | Client.Data e -> (
            match header_for t off e with
            | Some h ->
                if note off then walk h.Stream_header.backptrs
                (* if already known, the chain has reconnected *)
            | None -> scan_backward (off - 1))
        | Client.Junk | Client.Unwritten -> scan_backward (off - 1)
        | Client.Trimmed -> t.trim_gap <- true
    in
    walk ptrs;
    (* Filled holes were registered optimistically; drop them. *)
    let fresh =
      match !junk with
      | [] -> !members
      | junk -> List.filter (fun o -> not (List.mem o junk)) !members
    in
    push_members t fresh;
    (* Start fetching the newly discovered entries right away so the
       upcoming playback finds them in the cache. *)
    List.iter (Client.prefetch t.cl) fresh;
    t.horizon <- tail

(* Tracing-disabled syncs must not build the span args (stream/tail
   stringification) or a body closure. *)
let sync_with t ~tail ~ptrs =
  if tail > t.horizon then begin
    if Sim.Span.enabled () then
      Sim.Span.with_span
        ~host:(Sim.Net.host_name (Client.host t.cl))
        ~args:[ ("stream", string_of_int t.sid); ("tail", string_of_int tail) ]
        "backpointer.walk"
        (fun () -> sync_with_inner t ~tail ~ptrs)
    else sync_with_inner t ~tail ~ptrs
  end

let sync t =
  let tail, stream_tails = Client.peek_streams t.cl [ t.sid ] in
  (match stream_tails with
  | [ (_, ptrs) ] -> sync_with t ~tail ~ptrs
  | _ -> assert false);
  tail

let sync_from t off entry =
  if off >= t.horizon then
    match header_for t off entry with
    | Some h -> sync_with t ~tail:(off + 1) ~ptrs:(off :: h.Stream_header.backptrs)
    | None -> ()

let on_entry t off entry = header_for t off entry <> None
let complete_below t off = t.horizon >= off

let rec readnext t =
  if t.cursor >= t.len then None
  else begin
    let off = t.offsets.(t.cursor) in
    prefetch_from t t.cursor;
    match resolve t off with
    | Client.Data e ->
        t.cursor <- t.cursor + 1;
        Some (off, e)
    | Client.Junk ->
        t.cursor <- t.cursor + 1;
        readnext t
    | Client.Trimmed ->
        t.trim_gap <- true;
        t.cursor <- t.cursor + 1;
        readnext t
    | Client.Unwritten -> assert false
  end

let rec peek_next_offset t ~bound =
  if t.cursor >= t.len || t.offsets.(t.cursor) >= bound then None
  else begin
    let off = t.offsets.(t.cursor) in
    prefetch_from t t.cursor;
    match resolve t off with
    | Client.Data _ -> Some off
    | Client.Junk ->
        t.cursor <- t.cursor + 1;
        peek_next_offset t ~bound
    | Client.Trimmed ->
        t.trim_gap <- true;
        t.cursor <- t.cursor + 1;
        peek_next_offset t ~bound
    | Client.Unwritten -> assert false
  end
