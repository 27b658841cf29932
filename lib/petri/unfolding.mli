(** Branching processes / unfoldings of safe Petri nets (Definitions 3–4).

    Computed by the standard possible-extensions algorithm with an
    incrementally maintained concurrency relation. Nodes carry {e canonical
    names} mirroring the Skolem terms of the paper's Datalog encoding
    ([f(t, u1, ..., uk)] for events, [g(parent, place)] for conditions,
    rooted at the virtual transition [r]), giving all diagnosers a common
    identity space (Theorems 2 and 4 become set equalities). *)

module Int_set : Set.S with type elt = int

(** Canonical node names. *)
type name =
  | Cond_name of parent * string  (** [g(parent, place)] *)
  | Event_name of string * name list  (** [f(trans, preset names)] *)

and parent = Root | Parent of name

val name_compare : name -> name -> int

val name_depth : name -> int
(** Root conditions have depth 2 (they print as [g(r, place)]). *)

type cond = {
  c_id : int;
  c_place : string;
  c_parent : int option;  (** producing event; [None] for roots *)
  c_name : name;
}

type event = {
  e_id : int;
  e_trans : string;
  e_pre : int list;  (** preset condition ids, in [t_pre] order *)
  e_post : int list;
  e_name : name;
  e_local : Int_set.t;  (** local configuration: the event's causal past *)
  e_depth : int;
}

type t

val cond : t -> int -> cond
val event : t -> int -> event
val conds : t -> cond list
val events : t -> event list
val num_conds : t -> int
val num_events : t -> int

val is_complete : t -> bool
(** [false] iff a bound stopped the construction. *)

val net : t -> Net.t

val concurrent : t -> int -> int -> bool
(** Concurrency between conditions. *)

type bound = {
  max_events : int option;
  max_depth : int option;  (** canonical-name depth *)
}

val unfold : ?bound:bound -> Net.t -> t
(** The unique maximal branching process, possibly truncated by [bound]. *)

val causally_before : t -> int -> int -> bool
(** [causally_before u e1 e2] iff [e1 <= e2] (reflexive). *)

val in_conflict : t -> int -> int -> bool
val concurrent_events : t -> int -> int -> bool

val is_configuration : t -> Int_set.t -> bool
(** Downward closed and conflict-free. *)

val cut : t -> Int_set.t -> Int_set.t
(** Conditions produced (or initial) and not consumed by the
    configuration. *)

val iter_configurations : ?size:int -> ?max_size:int -> t -> (Int_set.t -> unit) -> unit
(** Enumerate configurations, each exactly once: all of them, exactly
    [size] events, or at most [max_size] events. Exponential — for
    reference checks on small prefixes. *)
