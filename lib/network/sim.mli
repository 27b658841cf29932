(** Deterministic simulator of an asynchronous peer-to-peer network.

    One FIFO queue per (source, destination) pair; a seeded scheduler picks
    which nonempty channel delivers next — per-channel FIFO with arbitrary
    cross-channel interleaving, exactly what the paper assumes of its
    communication layer. Same seed and policy: same run.

    Channels carry frames, not values. Each channel has its own encoder and
    decoder, built by the codec maker given to {!create} when the channel
    first carries a message: [send] encodes the message into a string
    frame, and delivery decodes the frame back into the value the handler
    receives. Peers share nothing through the network but frames, and
    every byte total is a sum of frame lengths. *)

type peer_id = string

type policy =
  | Random_interleaving  (** pick a random nonempty channel (seeded) *)
  | Round_robin  (** cycle over channels in creation order, passing over empty ones *)
  | Global_fifo  (** deliver strictly in send order *)

type 'msg t

val create :
  ?seed:int ->
  ?policy:policy ->
  ?loss:float ->
  codec:(src:peer_id -> dst:peer_id -> ('msg -> string) * (string -> 'msg)) ->
  ?describe:('msg -> string) ->
  unit ->
  'msg t
(** [codec ~src ~dst] builds the (encode, decode) pair of the channel
    [src -> dst], once, when that channel first carries a message. A
    channel's encoder sees its messages in send order and its decoder sees
    their frames in the same order, so the pair may keep connection state
    (e.g. a symbol table that makes the first occurrence of a symbol cost
    its name and later ones a small id). [describe] feeds the delivery
    trace. [loss] in [0, 1) injects failures: each sent message is
    silently dropped, before it is encoded, with that probability (the
    paper assumes reliable channels — the injection shows the assumption
    is load-bearing).
    @raise Invalid_argument on a loss outside [0, 1). *)

val set_tracing : 'msg t -> bool -> unit

exception Unknown_peer of peer_id

val add_peer : 'msg t -> peer_id -> ('msg t -> src:peer_id -> 'msg -> unit) -> unit
(** Register a peer with its message handler. Handlers may send. *)

val has_peer : 'msg t -> peer_id -> bool

val send : 'msg t -> src:peer_id -> dst:peer_id -> 'msg -> unit
(** Encode a message and queue its frame; delivery is always
    asynchronous, even to self. Under {!run_parallel} a handler sends only
    as its own peer ([src] is the peer it was registered for).
    @raise Unknown_peer on an unregistered destination. *)

val is_quiescent : 'msg t -> bool

val step : 'msg t -> bool
(** Deliver one message; [false] at quiescence. *)

exception Budget_exhausted of int
(** The payload is the exhausted budget ([max_steps]) itself. *)

val run : ?max_steps:int -> 'msg t -> int
(** Deliver until quiescent; returns the number of deliveries.
    @raise Budget_exhausted after [max_steps] deliveries. *)

val run_parallel : ?max_steps:int -> ?jobs:int -> 'msg t -> int
(** Deliver until quiescent using [jobs] worker domains (default
    {!Domain.recommended_domain_count}). Worker domains are pooled for the
    life of the process: a run reuses idle ones and spawns only the
    missing, and none is ever joined. Workers deliver straight from the
    channel queues under one lock: a worker takes a frame for a peer whose
    handler is not running, marks the peer busy, and decodes the frame and
    runs the handler with the lock released. So a peer's activations never
    overlap, and per-peer mutable state needs no locks even though peers
    migrate between domains; a channel's encoder runs in its source's
    activations and its decoder in its destination's, so codec state needs
    none either. The run ends when every channel is empty and no peer is
    busy. Delivery order across channels is nondeterministic; for
    confluent protocols (dQSQ) final fact sets equal the sequential
    scheduler's. This scheduler is a confluence oracle, not tuned for
    speed.
    @raise Budget_exhausted after [max_steps] total deliveries.
    @raise Invalid_argument when [jobs < 1]. *)

type channel_stats = { msgs : int; bytes : int }

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** lost to failure injection *)
  bytes : int;  (** sum of the frame lengths of sent messages *)
  channels : ((peer_id * peer_id) * channel_stats) list;
      (** per-channel message and byte totals, sorted by endpoint pair *)
}

val stats : 'msg t -> stats
(** The instance's totals since {!create}: [sent] and [bytes] are sums
    over the per-channel books (plus the drops, for [sent]). Every update
    is also mirrored into the process-wide {!Obs.Metrics.default}
    registry as the counters [sim.sent], [sim.delivered], [sim.dropped]
    and [sim.bytes]; per-channel byte totals are mirrored as
    [sim.channel_bytes.<src>-><dst>] counters, so [--stats=json] can
    report the byte matrix without holding the instance. *)

val delivery_trace : 'msg t -> (peer_id * peer_id * string) list
(** In delivery order; empty unless tracing was enabled. *)
