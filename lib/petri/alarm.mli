(** Alarm sequences observed by the supervisor.

    An alarm is a pair [(symbol, peer)]. The supervisor receives an
    interleaving that preserves each peer's emission order but carries no
    cross-peer ordering guarantee. *)

type alarm = { symbol : string; peer : string }
type t = alarm list

val make : (string * string) list -> t
val to_pairs : t -> (string * string) list
val length : t -> int

val split : t -> (string * alarm list) list
(** Per-peer subsequences, keyed by peer, sorted by peer name. *)

val equivalent : t -> t -> bool
(** Same per-peer subsequences: the supervisor cannot distinguish them and
    diagnosis is invariant across them. *)

val to_string : t -> string
