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
  Dprogram.t ->
  edb:Datom.t list ->
  query:Datom.t ->
  t
(** Every message crosses the network as a {!Wire} frame, with one
    connection per directed channel (first occurrence of a symbol or term
    spine costs its definition, later ones a varint id): the sender
    encodes it, the receiver decodes it, and byte accounting is the frame
    length. [wire_verify] is ignored; it is kept for callers written when
    a second decode checked each frame, which the decode at delivery now
    does on every run. {e All} protocol messages a handler activation
    produces — delegations, subscriptions and answer facts alike — are
    flushed as one {!Message.Batch} envelope per destination when the
    activation ends, in both the sequential and the parallel scheduler;
    the receiver coalesces the whole delta into a single semi-naive pass
    (sound: monotone Datalog, confluent protocol). *)

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
  t ->
  query:Datom.t ->
  outcome
(** Seed the query's input relation at its peer, start the local rewriting,
    and run the network to quiescence. With [jobs], the network runs under
    {!Network.Sim.run_parallel} on that many domains instead of the seeded
    sequential scheduler; the protocol is confluent (idempotent
    delegations/subscriptions, monotone Datalog), so the final fact sets —
    and hence [answers], sorted structurally — are identical to a
    sequential run. [policy]/[seed] are ignored in parallel mode. *)

val solve :
  ?seed:int ->
  ?policy:Network.Sim.policy ->
  ?loss:float ->
  ?eval_options:Eval.options ->
  ?termination:termination_mode ->
  ?max_steps:int ->
  ?jobs:int ->
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
    byte deltas are differences of {!net_stats}. *)

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
    @raise Invalid_argument on a non-quiescent network or a
    Dijkstra-Scholten engine, or on unknown peers (after the release). *)

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

val net_stats : t -> Network.Sim.stats
(** The underlying simulator's totals over the engine's lifetime, as
    {!outcome}'s [net_stats] carries them at the end of a run. *)

val wire_tables : t -> int * int
(** (symbols, terms) in the engine's per-channel codec tables
    ({!Wire.table_entries}); they survive {!release}. *)

val sup_at : rel:string -> ad:string -> rule_index:int -> pos:int -> peer:string -> Symbol.t
(** The supplementary relation [sup_{rule_index,pos}] of the rewriting of
    the located relation [rel] (["R@p"]) under the adornment [ad] (["bf"]),
    held at [peer]. Memoized in {!Message}'s registry, which is what lets
    the wire write it as these parts. *)

val zeta : string -> string
(** The zeta mapping of Theorem 1 on a relation name: every ["@peer"]
    segment stripped ([sup1,2^R@r^bf@s] becomes [sup1,2^R^bf]). *)

val zeta_facts : t -> string list
(** Union of all peer stores with every relation name mapped by {!zeta},
    comparable to the centralized QSQ evaluation of the localized program.
    Sorted, distinct. *)
