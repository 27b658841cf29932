(** dDatalog programs: located rules partitioned over peers by head site. *)

open Datalog

type t

val make : Drule.t list -> t
val rules : t -> Drule.t list
val size : t -> int
val append : t -> t -> t

val peers : t -> string list
(** All peers mentioned (head sites and body atoms). *)

val rules_at : t -> string -> Drule.t list
(** The rules peer [p] holds, in program order. *)

val names_distinct_across_peers : t -> bool
(** The w.l.o.g. hypothesis of Theorem 1 (rename otherwise). *)

val check_range_restricted : t -> (unit, Drule.t * string) result

val localize : t -> Program.t
(** Peers dropped — the program [P_local] of Theorem 1. *)

val globalize : t -> Program.t
(** The canonical global translation P^g (each relation gains a peer
    column). *)

val mangled : t -> Program.t
(** Over ["R@p"] symbols: the distributed program as one centralized
    program, used as an oracle. *)

exception Parse_error of string

val parse : string -> t
(** Parse dDatalog: every atom carries [@peer]; body atoms without one
    default to the head's peer. *)

val to_string : t -> string

val figure3 : unit -> t
(** The program of the paper's Figure 3 (peers r, s, t). *)
