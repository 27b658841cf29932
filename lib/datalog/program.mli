(** Datalog programs: finite sets of rules.

    Relations defined by some rule head are intensional (IDB); relations
    only appearing in bodies are extensional (EDB). Ground facts may be
    written as body-less rules or stored in a {!Fact_store}. *)

type t

val make : Rule.t list -> t
val rules : t -> Rule.t list
val size : t -> int

val idb_relations : t -> Symbol.t list

val edb_relations : t -> Symbol.t list
(** Relations appearing in bodies but defined by no rule. *)

val rules_for : t -> Symbol.t -> Rule.t list
(** The rules whose head relation is the given one, in program order (the
    order determines the rewriters' rule indices). *)

val partition_facts : t -> Atom.t list * t
(** Split the ground body-less rules off as initial facts. *)

val check_range_restricted : t -> (unit, Rule.t * string) result
val to_string : t -> string
