(** dDatalog rules: a located head and a body of located atoms and
    disequalities. Peer [p] holds the rules whose head is at [p]. *)

open Datalog

type literal =
  | Pos of Datom.t
  | Neq of Term.t * Term.t

type t = { head : Datom.t; body : literal list }

val make : Datom.t -> literal list -> t
val fact : Datom.t -> t

val site : t -> string
(** The peer holding this rule (the head's peer). *)

val body_atoms : t -> Datom.t list
val literal_vars : literal -> string list

val body_peers : t -> string list
(** Peers the rule's site must interact with to evaluate it. *)

val is_local : t -> bool
val check_range_restricted : t -> (unit, string) result

val to_rule : t -> Rule.t
(** Over mangled ["R@p"] symbols. *)

val to_local_rule : t -> Rule.t
(** Peers dropped (Theorem 1's localized program). *)

val to_global_rule : t -> Rule.t
(** The P^g translation (peer column added). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
