(** Syntactic unification with occurs check, and one-way matching.

    Rule evaluation matches body atoms against ground facts (one-way); the
    QSQ rewriting needs genuine two-way unification of non-ground terms —
    e.g. unifying a subquery [trans(x, g(u,c), g(v,c'))] with a rule head
    [trans(f(c,u,v), u, v)] (Section 4). *)

val unify : ?init:Subst.t -> Term.t -> Term.t -> Subst.t option
(** Most general unifier extending [init]; [None] on clash or occurs-check
    failure. The result is idempotent. *)

val match_term : ?init:Subst.t -> Term.t -> Term.t -> Subst.t option
(** [match_term pattern target] finds [s] with [apply s pattern = target];
    [target] is expected ground. Faster than full unification; used in the
    fact-store inner loop. *)

val match_lists : ?init:Subst.t -> Term.t list -> Term.t list -> Subst.t option
