(** Located atoms [R@p(e1, ..., en)] — the syntax of dDatalog (Section 3).

    The peer name is a constant. Located relations are identified by the
    pair (relation name, peer): two peers may reuse the same relation name
    for different relations. *)

open Datalog

type t = { rel : string; peer : string; args : Term.t list }

val make : rel:string -> peer:string -> Term.t list -> t
val equal : t -> t -> bool
val vars : t -> string list

val mangle_rel : rel:string -> peer:string -> Symbol.t
(** The located relation as the interned symbol ["R@p"]; lets each peer
    reuse the centralized engine on its own store. *)

val mangled_sym : t -> Symbol.t

val unmangle : Symbol.t -> (string * string) option
(** Split ["R@p"] back into [(R, p)]; [None] without a peer suffix. *)

val to_atom : t -> Atom.t
(** Plain atom over the mangled symbol. *)

val to_local_atom : t -> Atom.t
(** Plain atom ignoring the peer — the localized view of Theorem 1. *)

val to_global_atom : t -> Atom.t
(** The canonical P^g translation: [Rg(e1, ..., en, p)]. *)

val of_atom : Atom.t -> t option
val pp : Format.formatter -> t -> unit
val to_string : t -> string
