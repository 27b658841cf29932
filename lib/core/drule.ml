(** dDatalog rules: a located head, and a body of located atoms and
    disequalities. "The rules at site p are the rules where p is the site of
    the head": peer p holds the rules defining relation R@p. *)

open Datalog

type literal =
  | Pos of Datom.t
  | Neq of Term.t * Term.t

type t = { head : Datom.t; body : literal list }

let make head body = { head; body }
let fact head = { head; body = [] }
let site r = r.head.Datom.peer

let body_atoms r = List.filter_map (function Pos a -> Some a | Neq _ -> None) r.body

let literal_vars = function
  | Pos a -> Datom.vars a
  | Neq (x, y) -> Term.vars x @ Term.vars y

(** Peers mentioned in the body: the peers this rule's site must interact
    with to evaluate it. *)
let body_peers r =
  List.sort_uniq String.compare (List.map (fun a -> a.Datom.peer) (body_atoms r))

let is_local r = List.for_all (fun p -> String.equal p (site r)) (body_peers r)

let check_range_restricted r =
  let positive_vars = List.concat_map (function Pos a -> Datom.vars a | Neq _ -> []) r.body in
  let bad_of vars = List.find_opt (fun x -> not (List.mem x positive_vars)) vars in
  match bad_of (Datom.vars r.head) with
  | Some x -> Error x
  | None ->
    let neq_vars =
      List.concat_map (function Neq (x, y) -> Term.vars x @ Term.vars y | Pos _ -> []) r.body
    in
    (match bad_of neq_vars with Some x -> Error x | None -> Ok ())

(* Translation of the body shared by the three views of a dDatalog rule. *)
let map_rule f r : Rule.t =
  let body =
    List.map
      (function
        | Pos a -> Rule.Pos (f a)
        | Neq (x, y) -> Rule.Neq (x, y))
      r.body
  in
  Rule.make (f r.head) body

(** Rule over mangled located relation symbols ["R@p"]. *)
let to_rule = map_rule Datom.to_atom

(** The "local version ignoring peer names" of Theorem 1. Only meaningful
    when relation names of distinct peers are distinct (rename otherwise). *)
let to_local_rule = map_rule Datom.to_local_atom

(** The global-program translation P^g (relations get a peer column). *)
let to_global_rule = map_rule Datom.to_global_atom

let pp_literal ppf = function
  | Pos a -> Datom.pp ppf a
  | Neq (x, y) -> Format.fprintf ppf "%a != %a" Term.pp x Term.pp y

let pp ppf r =
  if r.body = [] then Format.fprintf ppf "%a." Datom.pp r.head
  else
    Format.fprintf ppf "%a :- %a." Datom.pp r.head
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_literal)
      r.body

let to_string r = Format.asprintf "%a" pp r
