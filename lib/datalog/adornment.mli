(** Adornments: binding patterns for relations (Section 3.1).

    An adornment records which argument positions the top-down
    left-to-right evaluation reaches bound — e.g. [R^bf]. Generalized to
    function terms: an argument is bound iff all its variables are. *)

type t = bool array
(** [true] = bound, [false] = free. *)

module Var_set : Set.S with type elt = string

val to_string : t -> string
val bound_count : t -> int

val of_atom : Var_set.t -> Atom.t -> t
(** Adornment of a body atom given the variables bound so far. *)

val of_query : Atom.t -> t
(** Bound where the query argument is ground. *)

val adorned_sym : Symbol.t -> t -> Symbol.t
(** The adorned relation name, e.g. [R^bf]. *)

val input_sym : Symbol.t -> t -> Symbol.t
(** The input relation accumulating subquery bindings, e.g. [in-R^bf]
    (Fig. 4). *)

val magic_sym : Symbol.t -> t -> Symbol.t
(** The magic predicate of the plain magic-sets rewriting, e.g. [m-R^bf]. *)

val sup_sym : Symbol.t -> t -> rule_index:int -> pos:int -> Symbol.t
(** The supplementary relation [sup_{i,j}] of Fig. 4. *)

val classify :
  Symbol.t ->
  [ `Answer of string * string | `Input of string * string | `Sup of string | `Plain ]
(** Recognize generated names: [`Answer (base, ad)] for adorned relations,
    [`Input] for in-/magic predicates, [`Sup] for supplementaries, [`Plain]
    otherwise. *)

val bound_args : t -> 'a list -> 'a list
