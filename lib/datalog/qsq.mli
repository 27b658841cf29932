(** The Query-Sub-Query rewriting (Fig. 4 of the paper).

    QSQ rewrites the program "based on the propagation of bindings":
    supplementary relations [sup_{i,j}] accumulate the bindings relevant at
    each body position and input relations [in-R^ad] accumulate subqueries.
    Evaluating the rewritten program bottom-up computes exactly the query's
    answers while materializing only binding-reachable facts. Generalized to
    function terms in heads and bodies (subqueries connect to rules by
    matching input facts against the head's terms), which the diagnosis
    encoding relies on. *)

exception Negation_unsupported of Rule.t
(** Raised when a rule contains a negated atom: the goal-directed
    rewritings here are defined for positive programs only (Remark 4). *)

type t = {
  program : Program.t;  (** the rewritten rules *)
  seed : Atom.t;  (** the initial input fact [in-Q^ad(constants)] *)
  query : Atom.t;
  query_rel : Symbol.t;
  query_ad : Adornment.t;
  answer_pattern : Atom.t;  (** [Q^ad(query args)], to read answers back *)
}

val rewrite : Program.t -> Atom.t -> t
(** Rewrite [program] for the given query atom. Only binding-reachable
    adornments are generated; rule indices follow
    {!Program.rules_for} order. *)

(** {2 The steps of Fig. 4}

    {!rewrite} is a demand worklist over these builders, and dQSQ's walk
    builds its rules with them too (Theorem 1). Symbol ids order the
    fact-store tables, so each builder interns in a fixed order: a
    literal's own names, then the next supplementary symbol ([sup]). *)

type names = { adorned : Adornment.t -> Symbol.t; input : Adornment.t -> Symbol.t }
(** A relation's [R^ad] and [in-R^ad] makers. *)

val names : Symbol.t -> names
(** The centralized names; dQSQ locates the same names at a peer. *)

type walk = { bound : Adornment.Var_set.t; prev : Atom.t; pending : (Term.t * Term.t) list }
(** A rule body's walk so far: the bound variables, the last [sup_{i,j}]
    atom, and the disequalities not yet ground. *)

val subquery : names -> Adornment.t -> Term.t list -> Atom.t
(** [in-R^ad(bound arguments)]: the fact that poses a query. *)

val bridge : names -> stored:Symbol.t -> Adornment.t -> Rule.t
(** [R^ad(X..) :- in-R^ad(bound X..), stored(X..)]: stored facts answer
    the subqueries they match. *)

val start :
  names -> Adornment.t -> sup:Symbol.t -> need:Adornment.Var_set.t -> Term.t list ->
  walk * Rule.t
(** [sup_{i,0} :- in-R^ad(bound head arguments)], over the bound variables
    in [need]. *)

val step :
  walk -> names option -> Atom.t -> need:Adornment.Var_set.t -> sup:(unit -> Symbol.t) ->
  demand:(Adornment.t -> unit) -> walk * Rule.t list
(** Pass a positive literal. Given its relation's names (an IDB relation),
    emit [in-S^ad :- sup_{i,j-1}, ...], call [demand ad] and read [S^ad].
    Then emit [sup_{i,j} :- sup_{i,j-1}, ..., literal, ...] over the bound
    variables in [need], with each disequality once it is ground. *)

val answer : walk -> names -> Adornment.t -> Term.t list -> Rule.t
(** [R^ad(head arguments) :- sup_{i,last}, pending disequalities]. *)

type materialization = {
  total : int;
  answer_facts : int;
  input_facts : int;
  sup_facts : int;
  answers_by_base : (string * int) list;
      (** distinct original facts per base relation, adornments merged *)
}

val materialization : Fact_store.t -> materialization
(** Report how much a rewritten-program evaluation materialized — the
    quantity Theorem 4 compares against the dedicated algorithm. *)

val solve :
  ?options:Eval.options ->
  Program.t ->
  Atom.t ->
  Fact_store.t ->
  Fact_store.t * Eval.result * Atom.t list
(** Rewrite, seed, evaluate semi-naive against a copy of the EDB, and read
    the answers back as instantiations of the original query atom. *)
