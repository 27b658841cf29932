(** Regular alarm patterns (Section 4.4): finite automata over alarm
    symbols, with the constructions the extensions need — word, concat,
    star, union, determinization, complement (forbidden patterns), and a
    boundedness check deciding whether the depth gadget is required. *)

module S_set : Set.S with type elt = string

type t

val make :
  states:string list ->
  initial:string list ->
  accepting:string list ->
  transitions:(string * string * string) list ->
  t
(** An NFA; transitions are [(state, symbol, state')].
    @raise Invalid_argument on unknown states. *)

val initial : t -> string list
val accepting : t -> string list
val transitions : t -> (string * string * string) list

val step : t -> S_set.t -> string -> S_set.t
(** One NFA step on a symbol. *)

val accepts : t -> string list -> bool

val word : string list -> t
(** The linear automaton of a fixed word — exactly the per-peer [alarmSeq]
    index chain of Section 4.2. *)

val concat : t -> t -> t
val star : t -> t
val union : t -> t -> t

val determinize : ?alphabet:string list -> t -> t
(** Subset construction; the result is a complete DFA over the given
    alphabet (default: the pattern's own). *)

val complement : alphabet:string list -> t -> t
(** Words over [alphabet] NOT matched — the forbidden-pattern extension. *)

val contains_factor : alphabet:string list -> string list -> t
(** Words containing the given factor; complement it to "block the
    unfolding construction upon detection" of a bad pattern. *)

val unbounded : t -> bool
(** Accepts arbitrarily long words (a useful cycle exists): diagnosis then
    needs the depth gadget of Section 4.4. *)
