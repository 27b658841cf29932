(** Hash-consed first-order terms with function symbols.

    The paper departs from classical Datalog by allowing function symbols
    (Section 3): they create the identities of unfolding nodes (the Skolem
    functions [f], [g], [h] of Section 4). Structurally equal terms are
    physically equal (maximal sharing, Filliâtre–Conchon hash-consing), so
    equality is a pointer comparison and [hash] / [is_ground] / [depth] /
    [size] are cached field reads. Construct terms with the smart
    constructors below, deconstruct them with {!view}. *)

type t

type node =
  | Const of Symbol.t
  | Var of string
  | App of Symbol.t * t list

val view : t -> node
(** The root node of a term, for pattern matching:
    [match Term.view t with Term.App (f, args) -> ...]. *)

val const : string -> t
(** [const s] is the constant named [s]. *)

val cconst : Symbol.t -> t
(** Like {!const} on an already interned symbol. *)

val var : string -> t

val app : string -> t list -> t
(** [app f args] is the application of function symbol [f]. *)

val capp : Symbol.t -> t list -> t
(** Like {!app} on an already interned symbol. *)

val equal : t -> t -> bool
(** Physical equality — O(1), sound and complete thanks to maximal
    sharing. *)

val compare : t -> t -> int
(** Total order by creation order (the hash-cons tag) — O(1).
    Deterministic within a sequential run but {e not} across runs,
    processes, or parallel domain schedules; use {!compare_structural}
    for any externally visible ordering. *)

val compare_structural : t -> t -> int
(** Structural order, independent of interning history. Used by {!Set} and
    {!Map}, and by every deterministic output path (canonical diagnosis
    order, reports, sorted dumps). *)

val hash : t -> int
(** Cached full-depth structural hash — O(1). *)

val tag : t -> int
(** The unique hash-cons tag of this structure (creation order). *)

val is_ground : t -> bool
(** No variables anywhere — cached, O(1). *)

val depth : t -> int
(** Depth of the term; constants and variables have depth 1. Implements the
    "gadgets to prevent non-terminating computations, such as bounding the
    depth of the unfolding" of Section 4.4. Cached, O(1). *)

val size : t -> int
(** Number of symbols; used to approximate message sizes. Cached, O(1). *)

val vars_fold : ('a -> string -> 'a) -> 'a -> t -> 'a
(** Fold over variable occurrences, left to right (skipping ground subterms
    in O(1)). *)

val vars : t -> string list
(** Distinct variables in order of first occurrence. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val live_terms : unit -> int
(** Number of live terms in the (weak) hash-cons table — dead terms are
    collected by the GC. For tests and diagnostics. *)

module Set : Set.S with type elt = t
(** Ordered by {!compare_structural}, so iteration order is stable across
    runs. *)

module Map : Map.S with type key = t
(** Ordered by {!compare_structural}. *)

module Tag_tbl : Hashtbl.S with type key = int
(** Tables keyed by {!tag}: O(1) on the deepest spine, where a table keyed
    by the term itself hashes and compares structure. *)
