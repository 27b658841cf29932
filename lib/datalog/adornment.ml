(** Adornments: binding patterns for relations (Section 3.1 of the paper).

    An adornment records, for each argument position of a relation, whether
    the top-down left-to-right evaluation reaches that position with a bound
    (ground) or free argument — e.g. [R^bf] for the 2-ary [R] with the first
    position bound. We generalize the textbook setting to function terms: an
    argument is bound iff all its variables are bound. *)

type t = bool array
(** [true] = bound, [false] = free *)

let to_string (ad : t) =
  String.init (Array.length ad) (fun i -> if ad.(i) then 'b' else 'f')

let bound_count (ad : t) = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 ad

module Var_set = Set.Make (String)

let term_bound bound (t : Term.t) =
  Term.is_ground t || Term.vars_fold (fun acc x -> acc && Var_set.mem x bound) true t

(** Adornment of an atom given the set of currently bound variables. *)
let of_atom bound (a : Atom.t) : t =
  Array.of_list (List.map (term_bound bound) a.Atom.args)

(** Adornment of a query atom: a position is bound iff its argument is
    ground. *)
let of_query (a : Atom.t) : t =
  Array.of_list (List.map Term.is_ground a.Atom.args)

(* The name builders are memoized by their inputs ({!Symbol.memo}). An
   adornment is never mutated once built, so it can be part of a key. *)
let adorned_tbl : (Symbol.t * t, Symbol.t) Hashtbl.t = Hashtbl.create 64
let input_tbl : (Symbol.t * t, Symbol.t) Hashtbl.t = Hashtbl.create 64
let sup_tbl : (Symbol.t * t * int * int, Symbol.t) Hashtbl.t = Hashtbl.create 64

(** Name of the adorned version of a relation, e.g. [R^bf]. The separator
    cannot appear in parsed identifiers, so adorned names never collide with
    user relations. *)
let adorned_sym (rel : Symbol.t) (ad : t) : Symbol.t =
  Symbol.memo adorned_tbl (rel, ad) (fun () ->
      Symbol.intern (Printf.sprintf "%s^%s" (Symbol.name rel) (to_string ad)))

(** Name of the input relation accumulating subquery bindings, e.g.
    [in-R^bf] (called [in-R^bf] in Fig. 4 of the paper). *)
let input_sym (rel : Symbol.t) (ad : t) : Symbol.t =
  Symbol.memo input_tbl (rel, ad) (fun () ->
      Symbol.intern (Printf.sprintf "in-%s^%s" (Symbol.name rel) (to_string ad)))

(** Name of the magic predicate of the plain magic-sets rewriting, e.g.
    [m-R^bf]. *)
let magic_sym (rel : Symbol.t) (ad : t) : Symbol.t =
  Symbol.intern (Printf.sprintf "m-%s^%s" (Symbol.name rel) (to_string ad))

(** Name of the [j]-th supplementary relation of rule number [i] defining the
    adorned relation [R^ad] ([sup_{i,j}] in Fig. 4). *)
let sup_sym (rel : Symbol.t) (ad : t) ~rule_index ~pos : Symbol.t =
  Symbol.memo sup_tbl (rel, ad, rule_index, pos) (fun () ->
      Symbol.intern
        (Printf.sprintf "sup%d,%d^%s^%s" rule_index pos (Symbol.name rel) (to_string ad)))

(** Recover the original relation from an adorned / input / sup name.
    Returns [None] for names that are not generated. *)
let classify (sym : Symbol.t) :
    [ `Answer of string * string | `Input of string * string | `Sup of string | `Plain ] =
  let name = Symbol.name sym in
  let is_sup = String.length name >= 3 && String.sub name 0 3 = "sup"
               && String.contains name ',' && String.contains name '^' in
  if is_sup then `Sup name
  else
    match String.rindex_opt name '^' with
    | None -> `Plain
    | Some i ->
      let base = String.sub name 0 i in
      let ad = String.sub name (i + 1) (String.length name - i - 1) in
      if String.length base > 3 && String.sub base 0 3 = "in-" then
        `Input (String.sub base 3 (String.length base - 3), ad)
      else if String.length base > 2 && String.sub base 0 2 = "m-" then
        `Input (String.sub base 2 (String.length base - 2), ad)
      else `Answer (base, ad)

(** The arguments at bound positions. *)
let bound_args (ad : t) (args : 'a list) : 'a list =
  List.filteri (fun i _ -> ad.(i)) args
