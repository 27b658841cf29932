(** Substitutions: finite maps from variable names to terms.

    Substitutions produced by {!Unify} are idempotent: bindings never map a
    variable to a term containing a bound variable, so {!apply} is a single
    pass. *)

type t

val empty : t
val find : string -> t -> Term.t option
val bind : string -> Term.t -> t -> t
val bindings : t -> (string * Term.t) list
val of_list : (string * Term.t) list -> t
val mem : string -> t -> bool
val cardinal : t -> int

val apply : t -> Term.t -> Term.t
(** Apply the substitution to every variable of the term (recursively, so
    non-idempotent substitutions are also resolved). *)

val compose : t -> t -> t
(** [compose s1 s2] behaves as applying [s2] then [s1]. *)

val restrict : string list -> t -> t
(** Keep only the bindings of the given variables. *)
