(** Rules [a0 :- a1, ..., an, x1 != y1, ..., xm != ym] (Section 3).

    Bodies mix positive atoms and disequality constraints. A rule is {e
    range restricted} when all head variables and all disequality variables
    occur in a positive body atom; only such rules evaluate safely. A rule
    with an empty body is a fact. *)

type literal =
  | Pos of Atom.t
  | Neq of Term.t * Term.t
  | Neg of Atom.t
      (** negated atom (Remark 4); evaluated as negation-as-failure by
          {!Eval.stratified} / {!Eval.alternating} — the goal-directed
          rewriters reject it *)

type t = { head : Atom.t; body : literal list }

val make : Atom.t -> literal list -> t
val fact : Atom.t -> t
val is_fact : t -> bool

val body_atoms : t -> Atom.t list
(** The positive atoms of the body, in order. *)

val negated_atoms : t -> Atom.t list
val has_negation : t -> bool

val literal_vars : literal -> string list

val vars : t -> string list
(** Distinct variables of head then body, in order of first occurrence. *)

val check_range_restricted : t -> (unit, string) result
(** [Error x] names an offending variable. *)

val is_range_restricted : t -> bool
val apply : Subst.t -> t -> t

val freshen : t -> t
(** Rename all variables with a fresh ["~n"] suffix, for capture-free reuse
    of the rule during rewriting. *)

val pp_literal : Format.formatter -> literal -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

val hash : t -> int
(** Structural hash agreeing with {!equal}. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by rules up to {!equal}: the same rule rebuilt is the same
    key, a variable renaming is not. *)
