(** Deterministic simulator of an asynchronous peer-to-peer network.

    One FIFO queue per (source, destination) pair; a seeded scheduler picks
    which nonempty channel delivers next — per-channel FIFO with arbitrary
    cross-channel interleaving, exactly what the paper assumes of its
    communication layer. Same seed and policy: same run. *)

type peer_id = string

type policy =
  | Random_interleaving  (** pick a random nonempty channel (seeded) *)
  | Round_robin  (** cycle over channels in creation order *)
  | Global_fifo  (** deliver strictly in send order *)

type 'msg t

val create :
  ?seed:int ->
  ?policy:policy ->
  ?loss:float ->
  ?size_of:(src:peer_id -> dst:peer_id -> 'msg -> int) ->
  ?describe:('msg -> string) ->
  unit ->
  'msg t
(** [size_of] reports the on-the-wire size of a message in bytes and feeds
    all byte accounting; it receives the channel endpoints so a caller can
    thread per-channel codec state (e.g. a symbol table that makes the
    first occurrence of a symbol cost its name and later ones a small id).
    The default reports 0: without a codec there are no bytes, only
    message counts. [describe] feeds the delivery trace. [loss] in [0, 1)
    injects failures: each sent message is silently dropped with that
    probability (the paper assumes reliable channels — the injection shows
    the assumption is load-bearing).
    @raise Invalid_argument on a loss outside [0, 1). *)

val set_tracing : 'msg t -> bool -> unit

exception Unknown_peer of peer_id

val add_peer : 'msg t -> peer_id -> ('msg t -> src:peer_id -> 'msg -> unit) -> unit
(** Register a peer with its message handler. Handlers may send. *)

val has_peer : 'msg t -> peer_id -> bool
val peers : 'msg t -> peer_id list

val send : 'msg t -> src:peer_id -> dst:peer_id -> 'msg -> unit
(** Queue a message; delivery is always asynchronous, even to self.
    @raise Unknown_peer on an unregistered destination. *)

val is_quiescent : 'msg t -> bool

val step : 'msg t -> bool
(** Deliver one message; [false] at quiescence. *)

exception Budget_exhausted of int
(** The payload is the exhausted budget ([max_steps]) itself. *)

val run : ?max_steps:int -> 'msg t -> int
(** Deliver until quiescent; returns the number of deliveries.
    @raise Budget_exhausted after [max_steps] deliveries. *)

type pinning =
  | Balanced  (** peer home domains round-robin in sorted-name order *)
  | Skewed
      (** all peers homed on domain 0, so other workers only ever get
          work by stealing — a test/fuzz mode that forces the steal path *)

val run_parallel : ?max_steps:int -> ?jobs:int -> ?pinning:pinning -> 'msg t -> int
(** Deliver until quiescent using [jobs] worker domains (default
    {!Domain.recommended_domain_count}). Worker domains are pooled for the
    life of the process: a run reuses idle ones and spawns only the
    missing, and none is ever joined. Each peer owns a mailbox box
    homed on a domain (per [pinning], default [Balanced]); a worker claims
    a runnable peer — stealing whole boxes from the most-loaded other
    domain when its own run queue is empty ([sim.steals]) — and drains the
    peer's entire mailbox per claim ([sim.batches]/[sim.batch_size]),
    running every handler without holding any lock. A scheduled flag makes
    peer activations mutually exclusive, so per-peer mutable state still
    needs no locks even though peers migrate between domains. Messages
    already queued under the sequential scheduler are migrated in
    (per-channel FIFO preserved). Termination uses an atomic in-flight
    count at drained-segment granularity: a segment's units are released
    only after its last handler returns, so the count reaching zero is a
    stable global-quiescence signal. Delivery order across channels is
    nondeterministic; for confluent protocols (dQSQ) final fact sets
    equal the sequential scheduler's.
    @raise Budget_exhausted after [max_steps] total deliveries.
    @raise Invalid_argument when [jobs < 1]. *)

type channel_stats = { msgs : int; bytes : int }

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** lost to failure injection *)
  bytes : int;  (** sum of [size_of] over sent messages — real codec bytes *)
  channels : ((peer_id * peer_id) * channel_stats) list;
      (** per-channel message and byte totals, sorted by endpoint pair *)
}

val stats : 'msg t -> stats
(** A thin view over the instance's metrics registry (see {!metrics}). *)

val metrics : 'msg t -> Obs.Metrics.registry
(** Per-instance accounting: counters [sim.sent], [sim.delivered],
    [sim.dropped], [sim.bytes]. Every update is also mirrored into the
    process-wide {!Obs.Metrics.default} registry under the same names;
    per-channel byte totals are additionally mirrored as
    [sim.channel_bytes.<src>-><dst>] counters, so [--stats=json] can
    report the byte matrix without holding the instance. *)

val delivery_trace : 'msg t -> (peer_id * peer_id * string) list
(** In delivery order; empty unless tracing was enabled. *)
