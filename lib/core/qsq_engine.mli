(** dQSQ: the distributed Query-Sub-Query protocol (Sections 3.2 and 4.3).

    Each peer rewrites its own rules exactly as centralized QSQ would; on
    meeting a remote relation, it delegates the remainder of the rule to
    the owning peer (the paper's rule (†)), which installs the
    supplementary machinery, subscribes to the bindings left behind, and
    continues. Rewriting and evaluation messages share one asynchronous
    network, so results may flow before the rewriting completes (Remark 2).
    Generated relation names match the centralized {!Datalog.Qsq} rewriting
    up to peer suffixes, realizing the zeta surjection of Theorem 1. *)

open Datalog

type t

(** How the distributed fixpoint is detected: by the simulator's omniscient
    quiescence test, or by the peers themselves running Dijkstra-Scholten
    termination detection (the "standard termination detection algorithms"
    the paper points at) — the latter roughly doubles the message count
    with acknowledgements but needs no global observer. *)
type termination_mode =
  | God_view
  | Dijkstra_scholten

val create :
  ?seed:int ->
  ?policy:Network.Sim.policy ->
  ?loss:float ->
  ?eval_options:Eval.options ->
  ?termination:termination_mode ->
  ?wire_verify:bool ->
  ?batching:bool ->
  Dprogram.t ->
  edb:Datom.t list ->
  query:Datom.t ->
  t
(** Byte accounting runs every message through the {!Wire} codec with one
    connection per directed channel (first occurrence of a symbol or term
    spine costs its definition, later ones a varint id). [wire_verify]
    additionally decodes each message on the spot and raises
    {!Wire.Roundtrip_mismatch} unless the result is physically identical —
    the service keeps this on. With [batching] (the default), {e all}
    protocol messages a handler activation produces — delegations,
    subscriptions and answer facts alike — are flushed as one
    {!Message.Batch} envelope per destination when the activation ends, in
    both the sequential and the parallel scheduler; the receiver coalesces
    the whole delta into a single semi-naive pass (sound: monotone
    Datalog, confluent protocol). [~batching:false] restores the eager
    per-message path, for byte-accounting comparisons. *)

type outcome = {
  answers : Atom.t list;
  deliveries : int;
  net_stats : Network.Sim.stats;
  delegations : int;  (** rule remainders shipped between peers *)
  subscriptions : int;
  fact_messages : int;
  total_facts : int;
  facts_per_peer : (string * int) list;
  clipped : int;  (** facts dropped by depth gadgets; 0 on true fixpoints *)
  ds_terminated : bool option;
      (** Dijkstra-Scholten mode: did the detector announce termination?
          [None] in god-view mode. *)
}

val run :
  ?max_steps:int ->
  ?jobs:int ->
  ?pinning:Network.Sim.pinning ->
  t ->
  query:Datom.t ->
  outcome
(** Seed the query's input relation at its peer, start the local rewriting,
    and run the network to quiescence. With [jobs], the network runs under
    {!Network.Sim.run_parallel} on that many domains instead of the seeded
    sequential scheduler; the protocol is confluent (idempotent
    delegations/subscriptions, monotone Datalog), so the final fact sets —
    and hence [answers], sorted structurally — are identical to a
    sequential run. [pinning] (parallel mode only) selects peer home
    domains; [Skewed] forces the work-stealing path. [policy]/[seed] are
    ignored in parallel mode. *)

val solve :
  ?seed:int ->
  ?policy:Network.Sim.policy ->
  ?loss:float ->
  ?eval_options:Eval.options ->
  ?termination:termination_mode ->
  ?batching:bool ->
  ?max_steps:int ->
  ?jobs:int ->
  ?pinning:Network.Sim.pinning ->
  Dprogram.t ->
  edb:Datom.t list ->
  query:Datom.t ->
  outcome

(** {2 Stepped execution and warm-engine recycling}

    The service layer interleaves many sessions over warm engines: it
    {!start}s a session, {!step}s its network a quantum at a time in
    round-robin with other sessions, calls {!finish} at quiescence, and
    {!recycle}s the engine for the next scenario of the same tenant. *)

val start : t -> unit
(** Inject the query and begin the distributed rewriting (what {!run}
    does before driving the network). Call once per session. *)

val step : t -> bool
(** Deliver one message; [false] at quiescence. *)

val is_quiescent : t -> bool

val finish : ?deliveries:int -> t -> outcome
(** Collect the outcome of a stepped run at quiescence. [deliveries] is
    echoed into the outcome (the caller counted its own {!step}s);
    [net_stats] is cumulative over the engine's lifetime, so per-session
    byte deltas come from counter differences. *)

val release : t -> unit
(** Clear a quiescent engine for a warm pool: every peer's facts, rules,
    compiled plans and protocol tables are dropped in place (tables stay
    allocated), while per-channel wire codec state survives, so later
    sessions' symbols ride the established dictionaries. A pooled engine
    then holds no session's data.
    @raise Invalid_argument on a non-quiescent network. *)

val recycle : t -> Dprogram.t -> edb:Datom.t list -> query:Datom.t -> unit
(** Point a quiescent warm engine at its next session: install the new
    program's rules and EDB. An engine not {!release}d since its last
    session is released first. Every peer of the new scenario must already
    exist in the engine.
    @raise Invalid_argument on unknown peers, a non-quiescent network, or
    a Dijkstra-Scholten engine. *)

val peer_store : t -> string -> Fact_store.t

val peer_rules : t -> string -> Rule.t list
(** The rules installed at a peer, in install order. *)

val set_tracing : t -> bool -> unit
(** Enable the underlying simulator's delivery trace (before {!run}). *)

val delivery_trace : t -> (string * string * string) list
(** [(src, dst, description)] per delivery, in delivery order; empty unless
    tracing was enabled. The determinism contract of {!Network.Sim}
    ("same seed and policy: same run") lifts to this trace, which is what
    the [seed-determinism] property of [lib/check] pins down. *)

val metrics : t -> Obs.Metrics.registry
(** The underlying simulator's per-instance registry ([sim.sent],
    [sim.delivered], [sim.dropped], [sim.bytes]) — counters only, so its
    {!Obs.Snapshot} is byte-identical across same-seed runs (unlike the
    process-wide registry, whose histograms record wall-clock times). *)

val wire_tables : t -> int * int
(** (symbols, terms) in the engine's per-channel codec tables
    ({!Wire.table_entries}); they survive {!release}. *)

val zeta_facts : t -> string list
(** Union of all peer stores with every ["@peer"] segment stripped from the
    relation names — the zeta mapping of Theorem 1, comparable to the
    centralized QSQ evaluation of the localized program. Sorted, distinct. *)
