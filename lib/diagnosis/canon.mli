(** Canonical node identities shared by all three diagnosers.

    The Datalog encoding names unfolding nodes with the Skolem terms
    [f(c, u, v)] and [g(parent, place)] rooted at the virtual transition
    [r]; the reference unfolder computes the same names. The conversions
    here make Theorems 2 and 4 checkable as term-set equalities. *)

open Datalog

val root_term : Term.t

val term_of_name : Petri.Unfolding.name -> Term.t

exception Not_a_node of Term.t

val name_of_term : Term.t -> Petri.Unfolding.name
(** @raise Not_a_node on terms that are not canonical node names. *)

val is_event_term : Term.t -> bool
val is_cond_term : Term.t -> bool

val transition_of_event_term : Term.t -> string option
(** The Petri-net transition an event term instantiates. *)

type config = Term.Set.t
(** A configuration as a set of event terms. *)

type diagnosis = config list
(** Sorted and duplicate-free: the diagnosis {e set} of the paper
    (interleaving-order variants identified). *)

val normalize_diagnosis : config list -> diagnosis
val equal_diagnosis : diagnosis -> diagnosis -> bool
val config_to_string : config -> string
val diagnosis_to_string : diagnosis -> string

val config_transitions : config -> string list
(** The configuration as sorted Petri-net transition ids (compact view for
    the human supervisor). *)
