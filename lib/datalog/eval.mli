(** Bottom-up evaluation: naive and semi-naive fixpoints.

    With function symbols the least model may be infinite and bottom-up
    evaluation may diverge (Section 3); the engine offers the depth gadget
    of Section 4.4 ([max_depth]) and hard budgets, reported in the result
    status. *)

type status =
  | Fixpoint  (** a genuine least fixpoint was reached *)
  | Depth_clipped  (** fixpoint of the depth-bounded program *)
  | Budget_exhausted  (** stopped by [max_facts] or [max_rounds] *)

type stats = {
  mutable derivations : int;  (** successful rule firings, incl. duplicates *)
  mutable new_facts : int;  (** facts actually added *)
  mutable clipped : int;  (** facts discarded by the depth bound *)
  mutable rounds : int;
}

type result = { status : status; stats : stats }

type options = {
  max_depth : int option;  (** discard facts with deeper terms *)
  max_facts : int option;
  max_rounds : int option;
}

val default_options : options
(** No bounds. *)

val naive : ?options:options -> Program.t -> Fact_store.t -> result
(** Re-evaluate every rule against the whole store each round. *)

val seminaive :
  ?options:options ->
  ?init_delta:Atom.t list ->
  ?on_new:(Atom.t -> unit) ->
  Program.t ->
  Fact_store.t ->
  result
(** Each round only considers instantiations matching a previous round's
    new facts. [init_delta] replaces the default initial delta (the whole
    store) for incremental re-evaluation; [on_new] observes every added
    fact (the distributed engines forward them to subscribers). *)

(** {2 Incremental evaluation}

    A rule index kept across evaluations: a peer that keeps receiving
    rules and facts (dQSQ, Remark 2) extends it one rule at a time instead
    of re-indexing its whole program on every activation. {!seminaive}
    indexes its program, then runs {!seminaive_indexed}. *)

type index
(** Rules indexed by the relations of their positive body atoms. Each rule
    has a serial: its rank in addition order. The index also keeps each
    rule's compiled joins: on a rule's first firing from a delta position
    its join is compiled to a plan (the order of its probes and checks
    fixed in advance, bindings in a slot array) that every later firing
    from that position reuses. Adding a rule compiles nothing; plans built
    are counted in [eval.plans_compiled]. *)

val index_create : unit -> index
val index_clear : index -> unit
val index_add : index -> Rule.t -> unit
val index_size : index -> int
(** Rules added so far (the serial the next rule gets). *)

val seminaive_indexed :
  options:options ->
  init_delta:Atom.t list option ->
  on_new:(Atom.t -> unit) ->
  closed:int ->
  index ->
  Fact_store.t ->
  result
(** The semi-naive rounds over an index. [closed] is the caller's promise
    that the store is a fixpoint of the rules with serial [< closed]
    ([0] promises nothing): until round 1 derives its first new fact their
    firings are skipped, since over an unchanged store they could only
    re-derive present facts. From that fact on every rule fires, so the
    derived facts, their order and the [on_new] calls are exactly those of
    [closed = 0]; only [stats.derivations] drops. *)

val stratify : Program.t -> (Program.t list, string) Stdlib.result
(** Split into strata with every negated relation fully defined strictly
    below; [Error rel] names a relation on a negative cycle. *)

exception Not_stratifiable of string

val stratified : ?options:options -> Program.t -> Fact_store.t -> result
(** Bottom-up evaluation of a classically stratified program (semi-naive
    per stratum). @raise Not_stratifiable on negative cycles. *)

val alternating : ?options:options -> Program.t -> Fact_store.t -> result
(** Alternating fixpoint for programs with Remark 4's "stratified flavor":
    not classically stratifiable, but monotone under derivation (a negated
    atom false of the saturated store stays false). Each round saturates
    the negation-free rules, then fires the negation rules once. Sound and
    complete exactly under that monotonicity precondition — the caller's
    obligation (the unfolding program satisfies it: new nodes never add
    causality or conflict between existing nodes). *)

val answers : Fact_store.t -> Atom.t -> Atom.t list
(** Ground instantiations of the query atom present in the store. *)

val run :
  ?options:options ->
  strategy:[ `Naive | `Seminaive ] ->
  Program.t ->
  Atom.t ->
  Fact_store.t * result * Atom.t list
(** Evaluate from an empty store and read the query's answers back. *)

