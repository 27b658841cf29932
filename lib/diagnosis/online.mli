(** Online (incremental) diagnosis: the [8]-style product search driven by
    alarms as they arrive.

    The paper's algorithms are inherently incremental — [configPrefixes]
    "explains increasing prefixes of the alarm sequence", and the dedicated
    algorithm "adds, to the net constructed for the prefix of length i-1,
    the transition nodes that emit the i-th alarm". This module keeps the
    search frontier alive between alarms as a {e delta-driven} fixpoint:

    - Nodes are keyed by (per-peer positions, cut) using hash-consed term
      tags; configurations explaining the same (positions, cut) pair are
      merged into one node, so each extension is computed once per node
      and peer slot, never per configuration.
    - Each [observe] only touches the frontier delta: nodes whose position
      at the alarm's peer was caught up extend by the new alarm; everything
      already saturated is left untouched (semi-naive evaluation).
    - After each alarm, inert nodes — nodes now lagging at every peer, so
      their extension sets are final, no future edge can reach them, and
      their payloads have already flowed to their successors — are garbage
      collected in O(reclaimed) time. Materialized
      events/conds stay a monotone view of everything ever built
      ({!events_materialized} / {!conds_materialized}); the live tables
      are refcounted so memory stays bounded on long streams.

    Live-set size and reclamation are observable through the [lib/obs]
    instruments [online.live_states] (gauge), [online.live_events] /
    [online.live_conds] (gauges over the refcounted tables) and
    [online.gc_reclaimed] (counter).

    States whose per-peer positions lag behind the current words are kept
    while any computed descendant might still complete: an early alarm's
    event may causally depend on an event explaining a later alarm of
    another peer, so partial states must survive until provably dead. *)

open Datalog

type t

exception State_budget_exceeded of { states : int; alarms_consumed : int }
(** Raised by {!observe} when the cumulative number of explored states
    passes [max_states]. [states] is the number explored when the budget
    tripped; [alarms_consumed] counts alarms accepted so far (including
    the one being processed). The instance is unusable afterwards. *)

val start : ?max_states:int -> ?gc:bool -> Petri.Net.t -> t
(** Begin supervising (nothing observed yet: the empty configuration is
    the only explanation). [gc] (default [true]) controls prefix garbage
    collection; diagnosis output is identical either way. *)

val observe : t -> string * string -> unit
(** One alarm [(symbol, peer)] arrives.
    @raise State_budget_exceeded when [max_states] is exceeded. *)

val observe_all : t -> Petri.Alarm.alarm list -> unit

val diagnosis : t -> Canon.diagnosis
(** Explanations of everything observed so far. *)

val events_materialized : t -> Term.Set.t
val conds_materialized : t -> Term.Set.t

val states_explored : t -> int
(** Cumulative nodes created since [start] (monotone; GC never lowers it). *)

val live_states : t -> int
(** Nodes currently retained — those still caught up at some peer; bounded
    on streams with GC (saturated history is dropped, not kept). *)

val gc_reclaimed : t -> int
(** Nodes reclaimed by GC since [start]. *)

val live_events : t -> int
(** Distinct event terms referenced by live edges (refcount table size). *)

val live_conds : t -> int
(** Distinct condition terms in live cuts (refcount table size). *)

val alarms_consumed : t -> int
(** Alarms accepted by {!observe} so far (unknown-peer alarms included). *)

val release : t -> unit
(** Return this instance's contribution to the process-wide
    [online.live_*] gauges. Further [observe] calls raise
    [Invalid_argument]; idempotent. The service calls this when a
    streaming session closes or fails. *)

val checkpoint : t -> string
(** Serialize the live frontier as one wire [snapshot] frame: nodes with
    their cuts, configurations (each as its maximal events) and successor
    edges, the word
    suffixes still reachable by future extensions, and the engine
    counters. Terms cross through the codec's definition-or-backref
    tables, so shared Skolem spines are written once per frame. Only
    {e live} state is written — inert nodes retained when GC is off, and
    the events/conditions only they reference, are dropped (compaction):
    snapshot size is bounded by the live frontier, not the alarm prefix.
    The instance is untouched and keeps running. Raises
    [Invalid_argument] on a released instance.

    Tips, nodes and cut conditions are written in hash-cons tag order, so
    two processes holding the same frontier can write different bytes
    (tags depend on process history); the decoded content is the same. *)

val restore : ?max_states:int -> Petri.Net.t -> string -> t
(** Rebuild an engine from a {!checkpoint} frame. Terms are re-interned
    through the hash-consing constructors and every tag-keyed structure
    (cuts, node keys, config tip sets, refcounts) is rebuilt from the
    re-interned terms, so the result behaves identically in a different
    process: for any future alarms, [diagnosis] and the service report
    frames are byte-identical to the uninterrupted run's. Restore walks
    no causal closure, so {!events_materialized} afterwards holds the
    live frontier's events (tips and edges), not the prefix's.
    [max_states] overrides the snapshot's saved budget (the cumulative
    [states_explored] carries over). The net must be structurally
    identical to the one the checkpoint was taken against. Memory is
    allocated by what the frame carries, never by a length it claims.
    @raise Dqsq.Wire.Corrupt on malformed input or a net mismatch. *)
