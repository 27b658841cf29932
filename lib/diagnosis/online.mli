(** Online (incremental) diagnosis: the [8]-style product search driven by
    alarms as they arrive.

    The paper's algorithms are inherently incremental — [configPrefixes]
    "explains increasing prefixes of the alarm sequence", and the dedicated
    algorithm "adds, to the net constructed for the prefix of length i-1,
    the transition nodes that emit the i-th alarm". This module keeps the
    search frontier alive between alarms as a {e delta-driven} fixpoint:

    - The supervised net must be safe (the paper's setting): a cut, a
      reachable marking, then holds at most one condition per place. A
      cut is stored as an array indexed by a dense per-engine place id,
      so firing a transition reads one slot per preset place. A firing
      that would put a second condition on a marked place raises
      {!Unsafe_net}.
    - Nodes are keyed by one flat int array: the per-peer positions, then
      the cut's hash-consed condition tags in place order.
      Configurations explaining the same (positions, cut) pair are
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

exception Unsafe_net of { transition : string; place : string; alarms_consumed : int }
(** Raised by {!observe} when firing [transition] would put a second
    condition on the marked [place]: the net is not safe, and this engine
    supports safe nets only. [alarms_consumed] counts alarms accepted so
    far (including the one being processed). The instance is unusable
    afterwards. *)

val start : ?max_states:int -> ?gc:bool -> Petri.Net.t -> t
(** Begin supervising (nothing observed yet: the empty configuration is
    the only explanation). [gc] (default [true]) controls prefix garbage
    collection; diagnosis output is identical either way. *)

val observe : t -> string * string -> unit
(** One alarm [(symbol, peer)] arrives.
    @raise State_budget_exceeded when [max_states] is exceeded.
    @raise Unsafe_net when a firing breaks the safety of the net. *)

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

val alarms_consumed : t -> int
(** Alarms accepted by {!observe} so far (unknown-peer alarms included). *)

val release : t -> unit
(** Return this instance's contribution to the process-wide
    [online.live_*] gauges. Further [observe] calls raise
    [Invalid_argument]; idempotent. The service calls this when a
    streaming session closes or fails. *)

val checkpoint : ?encoder:Dqsq.Wire.encoder -> t -> string
(** Serialize the live frontier as one wire [snapshot] frame: nodes with
    their cuts, configurations (each as its maximal events) and successor
    edges, the word suffixes still reachable by future extensions, and
    the engine counters. Terms cross through [encoder]'s
    definition-or-backref tables, so shared Skolem spines are written
    once. Only {e live} state is written — inert nodes retained when GC
    is off, and the events/conditions only they reference, are dropped
    (compaction). The instance is untouched and keeps running. Raises
    [Invalid_argument] on a released instance.

    [encoder] defaults to a fresh one: the frame is then self-contained,
    and since the frontier's tips reach back to the root through their
    Skolem spines, its size grows with the alarm prefix. Passing the
    encoder of the previous frame makes a {e segment}: it defines only
    the terms new since that frame and refers to the rest, so its size
    follows the alarms in between. Frames written through one encoder,
    concatenated in order, form a {e chain} that {!restore} accepts.

    Nodes are written in key order, tips and cut conditions in hash-cons
    tag order, so an engine restored in the same process checkpoints to
    the same bytes; two processes holding the same frontier can write
    different bytes (tags depend on process history), while the decoded
    content is the same. *)

val restore : ?max_states:int -> Petri.Net.t -> string -> t
(** Rebuild an engine from a chain: one {!checkpoint} frame, or frames
    written in order through one encoder and concatenated. Every frame is
    decoded, in order and through one decoder, for the terms it defines;
    only the last one's frontier becomes the engine. Terms are re-interned
    through the hash-consing constructors and every tag-keyed structure
    (cuts, node keys, config tip sets, refcounts) is rebuilt from the
    re-interned terms, so the result behaves identically in a different
    process: for any future alarms, [diagnosis] and the service report
    frames are byte-identical to the uninterrupted run's. Restore walks
    no causal closure, so {!events_materialized} afterwards holds the
    live frontier's events (tips and edges), not the prefix's.
    [max_states] overrides the snapshot's saved budget (the cumulative
    [states_explored] carries over). The net must be structurally
    identical to the one every frame was taken against, and each cut
    must hold at most one condition per place of that net. Memory is
    allocated by what the frames carry (and the net's size), never by a
    length they claim.
    A chain with a frame left out can decode without error into a wrong
    engine: its later frames refer to terms by table position, so the
    chain's integrity is the caller's to keep ([Snapshot] links every
    stored frame to its predecessor's bytes).
    @raise Dqsq.Wire.Corrupt on malformed input, an empty chain or a net
    mismatch. *)
