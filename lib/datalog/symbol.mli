(** Interned symbols: constants, function and relation names.

    Each distinct string maps to a unique small integer, making equality,
    comparison and hashing O(1). The intern table is global and append-only. *)

type t = private int

val intern : string -> t
(** [intern s] returns the unique symbol for [s], creating it if needed. *)

val name : t -> string
(** [name sym] is the string [sym] was interned from.
    @raise Invalid_argument on an id that was never interned. *)

val count : unit -> int
(** How many symbols have been interned so far. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Intern-id order: O(1), but it follows interning history, so it is NOT
    stable across processes that intern symbols in different orders. Fine
    for internal sets and indexes; any output that must be byte-identical
    across processes orders by {!compare_name} instead. *)

val compare_name : t -> t -> int
(** Lexicographic order on the interned strings — independent of interning
    history. The comparison every canonical output order bottoms out in
    ({!Datalog.Term.compare_structural}). *)

val hash : t -> int
val pp : Format.formatter -> t -> unit

val memo : ('k, t) Hashtbl.t -> 'k -> (unit -> t) -> t
(** [memo tbl key build] is the symbol [tbl] holds for [key], else
    [build ()], which [tbl] then keeps. For generated names: a rewrite
    asks for the same few over and over, and each costs a [Printf] and an
    intern. A miss runs [build], so symbols are interned exactly when they
    would be without the memo. Safe from any domain; [build] runs
    unlocked and must give the same symbol for the same key. *)

val fresh : string -> t
(** [fresh prefix] interns a new symbol ["prefix#n"] guaranteed distinct
    from all previously created symbols; used by rewriters. *)
