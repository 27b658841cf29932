(** Safe Petri nets distributed over peers (Definitions 1–2 of the paper).

    A net is a bipartite graph of places and transitions; each transition
    carries an alarm symbol [alpha] and every node a peer name [phi]. A
    Petri net additionally distinguishes the initially marked places. Node
    identifiers are strings and must be globally unique across peers. *)

module String_set : Set.S with type elt = string
module String_map : Map.S with type key = string

type place = {
  p_id : string;
  p_peer : string;
}

type transition = {
  t_id : string;
  t_peer : string;
  t_alarm : string;
  t_pre : string list;  (** parent places, in declaration order *)
  t_post : string list;  (** child places *)
}

type t

exception Ill_formed of string

val make : places:place list -> transitions:transition list -> marking:string list -> t
(** Build and check a net: distinct ids, arcs to existing nodes, marked
    places existing, at least one parent per transition, no duplicated
    parents/children. @raise Ill_formed otherwise. *)

val mk_place : peer:string -> string -> place
val mk_transition : peer:string -> alarm:string -> pre:string list -> post:string list -> string -> transition

val place : t -> string -> place
val transition : t -> string -> transition
val places : t -> place list
val transitions : t -> transition list
val marking : t -> String_set.t
val num_places : t -> int
val num_transitions : t -> int
val peers : t -> string list

val producers : t -> string -> string list
(** Transitions with the place in their postset. *)

val binarize : t -> t
(** Give every single-parent transition a private, initially marked slack
    place that it consumes and reproduces, so that every transition has
    exactly two parents (the assumption of the Section 4.1 encoding).
    Firing sequences and alarms are unchanged; in a safe net the
    configuration structure of the unfolding is preserved.
    @raise Ill_formed on transitions with more than two parents. *)

val is_binary : t -> bool
val pp : Format.formatter -> t -> unit
