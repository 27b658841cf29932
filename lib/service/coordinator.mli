(** Multi-tenant coordinator for the diagnosis service.

    Tenants register a net once; the coordinator caches the binarized net
    and the peer placement directory (net peers + the supervisor shard),
    and, on the tenant's first batch start, its net half
    ({!Diagnosis.Diagnoser.encode_net}: unfolding rules and [petriNet] base
    facts; streams never need them). A session belongs to
    one tenant: it is opened, receives a stream of alarms, is started —
    checking a warm engine out of the tenant's pool
    ({!Dqsq.Qsq_engine.recycle}) or creating one — and then advances a
    quantum of message deliveries at a time, round-robin with every other
    running session, until quiescent. Delegations route between peer shards exactly as dQSQ
    prescribes (by the located atom's peer); answer facts batch into one
    envelope per destination.

    Tenant isolation is structural: every tenant's sessions run on engines
    whose fact stores only ever held that tenant's relations. An engine is
    cleared in place as it returns to the pool ({!Dqsq.Qsq_engine.release},
    {!Datalog.Fact_store.reset}), so a pooled engine holds no session's
    facts, and stores are never shared across tenants.

    Streaming sessions ({!open_stream}) hold a per-session incremental
    {!Diagnosis.Online} engine instead: each alarm is explained on arrival
    (an O(delta) frontier extension with prefix GC), and {!report} reads
    the live diagnosis at any prefix, framed through the same wire codec
    as the batch path so the body is byte-identical to the direct
    [Online.diagnosis] rendering. A stream whose state budget trips, or
    whose net turns out not to be safe, is marked failed and its live
    tables released — the coordinator and every other session keep
    running.

    Metrics: counters [service.sessions_started] /
    [service.sessions_completed] / [service.streams_started], gauges
    [service.active_sessions] / [service.pooled_engines], histograms
    [service.session_latency_us] / [service.stream_alarm_latency_us]. *)

type t

type report = {
  session : int;
  tenant : string;
  explanations : int;
  body : string;
      (** the rendered {!Diagnosis.Report} of the diagnosis the
          configuration-set report frame carries *)
  deliveries : int;  (** messages delivered for this session *)
  wire_bytes : int;  (** codec bytes: session traffic + the report frame *)
  latency_s : float;  (** open-to-report wall time under interleaving *)
}

type stats = {
  tenants_count : int;
  active : int;  (** open, running, streaming or unfetched-done sessions *)
  running : int;
  streaming : int;  (** live streaming sessions *)
  pooled : int;  (** warm engines parked across all tenants *)
  started : int;  (** batch sessions started *)
  completed : int;
  wire_symbols : int;
  wire_terms : int;
      (** entries in the channel codec tables of live engines (pooled or
          running); report, checkpoint and restore frames do not count *)
}

type stream_info = {
  si_alarms : int;  (** alarms consumed by the stream *)
  si_reports : int;  (** reports rendered so far *)
  si_live_states : int;  (** current [Online.live_states] *)
  si_peak_live_states : int;  (** high-water mark over the stream's life *)
  si_gc_reclaimed : int;  (** states reclaimed by the prefix GC *)
  si_wire_bytes : int;  (** cumulative report-frame bytes *)
  si_last_latency_s : float;  (** wall time of the last alarm's extension *)
}

val create : ?quantum:int -> ?stream_max_states:int -> unit -> t
(** [quantum] (default 16) is the number of deliveries one session gets
    per round-robin turn. [stream_max_states] bounds every streaming
    session's cumulative explored states (default: the [Online] default). *)

val add_tenant : t -> name:string -> Petri.Net.t -> (string list, string) result
(** Register a tenant; the net is binarized if needed. Returns the peer
    placement (net peers + supervisor).
    Fails on duplicate names, a peer named ["supervisor"], a net with no
    transitions, or a net that cannot be binarized (a transition with more
    than two preset places). *)

val open_session : t -> tenant:string -> (int, string) result

val open_stream : ?max_states:int -> t -> tenant:string -> (int, string) result
(** Open a streaming session: an incremental [Online] engine supervises the
    tenant's net from the empty observation. [max_states] overrides the
    coordinator's [stream_max_states] for this stream. *)

val add_alarm : t -> int -> symbol:string -> peer:string -> (unit, string) result
(** Batch sessions buffer the alarm; streaming sessions explain it on the
    spot (the O(delta) extension). When a stream's state budget trips, or
    a firing would break the safety of the tenant's net
    ({!Diagnosis.Online.Unsafe_net}), the session moves to a failed state, its engine is released, and every
    subsequent command on it reports the failure — the coordinator itself
    is unaffected. *)

val start : t -> int -> (unit, string) result
(** Build the session's program ({!Diagnosis.Diagnoser.prepare_on}: the
    cached net half + fresh supervisor rules), seed a warm or new engine,
    and inject the query. *)

val step_round : t -> bool
(** Give every running session one quantum of deliveries, finalizing the
    ones that quiesce; [false] when no session was running. *)

val is_done : t -> int -> bool

val drive : ?only:int -> t -> (unit, string) result
(** Round-robin [step_round] until no session is running — or, with
    [only], until that session is done (other running sessions still
    advance: the interleaving is real). *)

val report : t -> int -> (report, string) result
(** Batch: the stored finalized report. Streaming: a fresh report of the
    diagnosis at the current prefix — [deliveries] counts alarms consumed,
    [wire_bytes] accumulates report frames, [latency_s] is open-to-now —
    and the stream stays open for more alarms. *)

val stream_info : t -> int -> (stream_info, string) result
(** Live gauges of a streaming session (errors on non-stream sessions). *)

val checkpoint_stream : t -> int -> (Snapshot.stream_image, string) result
(** Freeze a streaming session: session metadata plus the stream's
    checkpoint chain. The stream keeps running — checkpointing is a read
    of the engine, not a close.

    The chain lives with the session: a base frame
    ({!Diagnosis.Online.checkpoint} from a fresh encoder), then one
    segment per later checkpoint, written through the same encoder, so
    a segment costs the alarms since the previous frame rather than the
    whole prefix. The image's engine is the whole chain, so it is
    self-contained (migration takes it as is), and a one-frame chain is
    exactly the full checkpoint frame. Once the segments hold as many
    bytes as the base, the next checkpoint starts a new chain from a
    fresh encoder. A restored stream starts a new chain; [close] drops
    the chain with the session. *)

val restore_stream : t -> Snapshot.stream_image -> (int, string) result
(** Thaw an image into a fresh streaming session and return its (new)
    session id. Works on any coordinator holding the image's tenant with
    a structurally identical net — the migration and crash-recovery
    entrypoint. The image's engine may be a whole chain; it is decoded
    frame by frame and its last frontier becomes the engine. The restored engine produces byte-identical reports to
    the uninterrupted stream for all future alarms; its state budget is
    the one saved in the image. Fails on unknown tenants and corrupt or
    mismatched snapshots (counted by [service.streams_restored] on
    success). *)

val streaming_sessions : t -> int list
(** Ids of the live streaming sessions, ascending — what a graceful
    shutdown flushes to the snapshot store. *)

val close : t -> int -> (unit, string) result
(** Forget a done, failed, streaming or never-started session; a batch
    engine was already returned to the tenant pool at finalization, a
    stream's engine is released here. *)

val stats : t -> stats
