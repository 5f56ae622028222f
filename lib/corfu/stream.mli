(** Streams over the shared log (paper §4, §5).

    A stream is a client-side iterator over the subsequence of log
    entries tagged with one stream id. The metadata is a linked list
    of offsets rebuilt lazily from the backpointers embedded in stream
    headers: {!sync} asks the sequencer for the last K offsets of the
    stream, then strides {e backward} through the log — one read per K
    entries — until it reconnects with what it already knows. Junk
    (filled holes) breaks the chain; per the paper, the reader then
    scans backward entry-by-entry until it finds a valid entry of the
    stream.

    [readnext] never goes to the network for membership — only
    {!sync} does — and fetches entry bodies through the client's
    shared cache, so an entry on many streams is read once. *)

type t

(** [attach ?from client id] starts following stream [id]. No I/O
    happens until the first {!sync}. With [from], the stream starts at
    that offset: the backward walk stops there instead of at offset 0,
    so a reader interested only in recent history pays for that
    history alone. *)
val attach : ?from:Types.offset -> Client.t -> Types.stream_id -> t

(** [append t payload] appends one entry to this stream only;
    convenience over {!Client.append}. *)
val append : t -> bytes -> Types.offset

(** [sync t] brings the membership list up to date with the
    sequencer's current tail and returns that tail. The application
    must call it before relying on [readnext] for linearizable
    semantics (§5), and may call it periodically to amortize the
    cost. *)
val sync : t -> Types.offset

(** [sync_with t ~tail ~ptrs] performs the backward walk of {!sync}
    using peek data the caller already fetched ([ptrs] is the
    sequencer's last-K list for this stream at the time [tail] was the
    global tail). Lets a runtime hosting many streams refresh them all
    with a single sequencer round trip. *)
val sync_with : t -> tail:Types.offset -> ptrs:Types.offset list -> unit

(** [sync_from t off entry] is {!sync_with} seeded from [entry], the
    entry at [off] the caller already holds (typically one it just
    wrote): the entry's header for this stream lists the stream's last
    K offsets issued before [off], so the walk a peek taken right after
    [off] was issued would start makes membership complete below
    [off + 1] with no sequencer round trip (§5). A no-op when [entry]
    is not on this stream ({!on_entry}) or membership already reaches
    past [off]. *)
val sync_from : t -> Types.offset -> Types.entry -> unit

(** [on_entry t off entry]: [entry], the entry at [off], carries this
    stream, so {!sync_from} can complete its membership below
    [off + 1]. *)
val on_entry : t -> Types.offset -> Types.entry -> bool

(** [complete_below t off]: a sync has made membership complete for
    every offset below [off]. *)
val complete_below : t -> Types.offset -> bool

(** [readnext t] returns the next (offset, entry) of the stream below
    the last synced horizon, or [None] when the iterator has consumed
    everything discovered so far. Junk entries are skipped. *)
val readnext : t -> (Types.offset * Types.entry) option

(** [peek_next_offset t ~bound] is the offset [readnext] would
    deliver, if it lies below [bound]. A member at or past [bound] is
    never resolved, so a caller playing to [bound] does not wait for a
    write beyond it. *)
val peek_next_offset : t -> bound:Types.offset -> Types.offset option

(** Number of known entries not yet delivered. *)
val pending : t -> int

(** Cumulative random reads issued by sync walks (for the backpointer
    ablation: ≈ N/K plus junk-scan penalties). *)
val sync_reads : t -> int

(** Entry lookups served from the client cache. *)
val cache_hits : t -> int

(** Entry lookups that went to the log. *)
val cache_misses : t -> int

(** [has_trim_gap t]: the stream skipped reclaimed (trimmed) history,
    so the consumer's view is incomplete until a checkpoint covering
    the gap is applied. {!clear_trim_gap} acknowledges the repair. *)
val has_trim_gap : t -> bool

val clear_trim_gap : t -> unit
