(** Atoms [R(e1, ..., en)] over a relation symbol and a list of terms. *)

type t = { rel : Symbol.t; args : Term.t list }

val make : string -> Term.t list -> t
(** [make rel args] interns [rel] and builds the atom. *)

val cmake : Symbol.t -> Term.t list -> t
val equal : t -> t -> bool
val hash : t -> int
val is_ground : t -> bool

val vars : t -> string list
(** Distinct variables in order of first occurrence. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
