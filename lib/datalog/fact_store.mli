(** Mutable store of ground facts with lazy per-position indexing.

    Facts are grouped by relation. A lookup with ground terms at some
    argument positions builds (once) and then maintains a compound hash
    index over exactly those positions, so a probe returns only genuinely
    matching candidates — keeping the node-identity joins of the diagnosis
    programs close to O(1) per matching tuple. *)

type t

val create : unit -> t

val reset : t -> unit
(** Drop every fact but keep the relation table, membership tables and
    compound indexes allocated (cleared, not freed) — a cheap per-session
    reset for warm engines that serve thousands of scenarios. The gauge
    [fact_store.live] tracks the population of live stores (decremented by
    a GC finalizer), so pooling bugs show up as a climbing gauge. *)

val add : t -> Atom.t -> bool
(** Add a ground fact; [true] iff it was new.
    @raise Invalid_argument on a non-ground atom. *)

val mem : t -> Atom.t -> bool
val count : t -> int
val count_rel : t -> Symbol.t -> int

val relations : t -> Symbol.t list
(** Relations with at least one fact, sorted. *)

val tuples_of : t -> Symbol.t -> Term.t list list
(** Tuples of a relation in insertion order. *)

val facts_of : t -> Symbol.t -> Atom.t list

val iter_extents : t -> (Symbol.t -> Term.t list list -> unit) -> unit
(** [f rel tuples] for every relation of {!relations}, in that order, with
    its tuples newest first — the stored list itself, shared, not copied. *)

val all : t -> Atom.t list

val matches : t -> Atom.t -> init:Subst.t -> Subst.t list
(** The substitutions [s] extending [init] such that [apply s pattern] is
    a stored fact, newest fact first. *)

(** {2 Probes}

    The primitive under {!matches} and the compiled joins of {!Eval}:
    a probe names the bound argument positions and their values, and
    returns the candidates; matching the other positions is the caller's. *)

type extent
(** One relation's tuples and indexes. *)

val extent : t -> Symbol.t -> extent option
(** [None] when the relation has never held a fact. *)

val probe : extent -> int list -> Term.t list -> Term.t list list
(** [probe e mask key]: the tuples whose arguments at the ascending
    positions [mask] are the terms of [key] (every tuple when [mask] is
    empty: a full scan), newest first. The compound index over [mask] is
    built on first use and maintained from then on. Counted in
    [fact_store.probes], [.candidates] and [.full_scans]. *)

val copy : t -> t

val to_sorted_strings : t -> string list
(** All facts, printed and sorted — for order-insensitive comparisons.

    Probe/candidate/scan accounting is registered in the default
    {!Obs.Metrics} registry under [fact_store.*] (see the Observability
    section of README.md); the former ad-hoc counter refs are gone. *)
