(** Rules [a0 :- a1, ..., an, x1 <> y1, ..., xm <> ym].

    As in the paper (Section 3), bodies mix positive atoms and disequality
    constraints; all head variables must occur in a positive body atom, and so
    must the variables of disequalities (range restriction). A rule with an
    empty body is a fact. *)

type literal =
  | Pos of Atom.t
  | Neq of Term.t * Term.t
  | Neg of Atom.t
      (** negation as failure; see {!Eval.stratified} and Remark 4 *)

type t = { head : Atom.t; body : literal list }

let make head body = { head; body }
let fact head = { head; body = [] }
let is_fact r = r.body = []

let body_atoms r =
  List.filter_map (function Pos a -> Some a | Neq _ | Neg _ -> None) r.body

let negated_atoms r =
  List.filter_map (function Neg a -> Some a | Pos _ | Neq _ -> None) r.body

let has_negation r = negated_atoms r <> []

let literal_vars = function
  | Pos a | Neg a -> Atom.vars a
  | Neq (x, y) -> Term.vars x @ Term.vars y

(* variables of the whole rule, first occurrence first (head, then body);
   set-based membership — this runs on every [freshen] *)
let vars r =
  let module S = Set.Make (String) in
  let seen = ref S.empty in
  let add acc x =
    if S.mem x !seen then acc
    else begin
      seen := S.add x !seen;
      x :: acc
    end
  in
  List.rev
    (List.fold_left
       (fun acc l -> List.fold_left add acc (literal_vars l))
       (List.fold_left add [] (Atom.vars r.head))
       r.body)

(** Check the range restriction: every variable of the head and of each
    disequality occurs in some positive body atom. Returns the offending
    variable if any. *)
let check_range_restricted r =
  let positive_vars =
    List.concat_map (function Pos a -> Atom.vars a | Neq _ | Neg _ -> []) r.body
  in
  let bad_of vars = List.find_opt (fun x -> not (List.mem x positive_vars)) vars in
  match bad_of (Atom.vars r.head) with
  | Some x -> Error x
  | None ->
    let neq_vars =
      List.concat_map
        (function
          | Neq (x, y) -> Term.vars x @ Term.vars y
          | Neg a -> Atom.vars a
          | Pos _ -> [])
        r.body
    in
    (match bad_of neq_vars with Some x -> Error x | None -> Ok ())

let is_range_restricted r = Result.is_ok (check_range_restricted r)

let apply s r =
  let apply_lit = function
    | Pos a -> Pos (Atom.apply s a)
    | Neg a -> Neg (Atom.apply s a)
    | Neq (x, y) -> Neq (Subst.apply s x, Subst.apply s y)
  in
  { head = Atom.apply s r.head; body = List.map apply_lit r.body }

(** Rename all variables of [r] with a fresh suffix, for safe unification of
    rules against subqueries that may share variable names. *)
let freshen =
  let counter = ref 0 in
  fun r ->
    incr counter;
    let suffix = Printf.sprintf "~%d" !counter in
    let s =
      Subst.of_list (List.map (fun x -> (x, Term.var (x ^ suffix))) (vars r))
    in
    apply s r

let pp_literal ppf = function
  | Pos a -> Atom.pp ppf a
  | Neg a -> Format.fprintf ppf "not %a" Atom.pp a
  | Neq (x, y) -> Format.fprintf ppf "%a != %a" Term.pp x Term.pp y

let pp ppf r =
  if r.body = [] then Format.fprintf ppf "%a." Atom.pp r.head
  else
    Format.fprintf ppf "%a :- %a." Atom.pp r.head
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_literal)
      r.body

let to_string r = Format.asprintf "%a" pp r

let equal a b =
  Atom.equal a.head b.head
  && List.length a.body = List.length b.body
  && List.for_all2
       (fun x y ->
         match x, y with
         | Pos p, Pos q | Neg p, Neg q -> Atom.equal p q
         | Neq (a1, b1), Neq (a2, b2) -> Term.equal a1 a2 && Term.equal b1 b2
         | (Pos _ | Neq _ | Neg _), _ -> false)
       a.body b.body

(* Structural hash matching [equal]: terms are hash-consed, so this is
   O(rule size) field reads. *)
let hash r =
  List.fold_left
    (fun acc lit ->
      let h =
        match lit with
        | Pos a -> Atom.hash a
        | Neg a -> 17 + Atom.hash a
        | Neq (x, y) -> (Term.hash x * 31) + Term.hash y
      in
      (acc * 65599) + h)
    (Atom.hash r.head) r.body

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
