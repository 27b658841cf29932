(** dDatalog programs: finite sets of located rules, partitioned over peers
    by the site of their heads. *)

open Datalog

type t = { rules : Drule.t list }

let make rules = { rules }
let rules t = t.rules
let size t = List.length t.rules
let append a b = { rules = a.rules @ b.rules }

let peers t =
  List.sort_uniq String.compare
    (List.concat_map (fun r -> Drule.site r :: Drule.body_peers r) t.rules)

(** The rules held by peer [p] (those whose head is at [p]). *)
let rules_at t p = List.filter (fun r -> String.equal (Drule.site r) p) t.rules

(** Located relations defined by some rule. *)
let idb_relations t =
  List.sort_uniq compare
    (List.map (fun r -> (r.Drule.head.Datom.rel, r.Drule.head.Datom.peer)) t.rules)

let body_relations t =
  List.sort_uniq compare
    (List.concat_map
       (fun r -> List.map (fun a -> (a.Datom.rel, a.Datom.peer)) (Drule.body_atoms r))
       t.rules)

(** Check the well-formedness condition of Theorem 1: relation names of
    distinct peers are distinct (otherwise the localized comparison program
    is meaningless; "otherwise rename the relations"). *)
let names_distinct_across_peers t =
  let all =
    List.sort_uniq compare
      (idb_relations t @ body_relations t)
  in
  let names = List.map fst all in
  List.length (List.sort_uniq String.compare names) = List.length names

let check_range_restricted t =
  List.fold_left
    (fun acc r ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match Drule.check_range_restricted r with
        | Ok () -> Ok ()
        | Error x -> Error (r, x)))
    (Ok ()) t.rules

(** Centralized views (Theorem 1 and the canonical P^g translation). *)
let localize t : Program.t = Program.make (List.map Drule.to_local_rule t.rules)

let globalize t : Program.t = Program.make (List.map Drule.to_global_rule t.rules)

(** View over mangled ["R@p"] symbols: the distributed program as one
    centralized program, used as an oracle in tests. *)
let mangled t : Program.t = Program.make (List.map Drule.to_rule t.rules)

(* ---------- parsing ---------- *)

exception Parse_error of string

let datom_of_raw ~default_peer (a : Parser.raw_atom) : Datom.t =
  let peer =
    match a.Parser.peer, default_peer with
    | Some p, _ -> p
    | None, Some p -> p
    | None, None ->
      raise (Parse_error (Printf.sprintf "atom %s lacks a peer annotation" a.Parser.rel))
  in
  Datom.make ~rel:a.Parser.rel ~peer a.Parser.args

(** Parse a dDatalog program. Every atom must carry [@peer]; atoms without
    one default to the peer of the rule's head (a convenient shorthand for
    "local" atoms, used by the paper itself in Figure 3's rule bodies). *)
let parse (s : string) : t =
  let raw = Parser.parse_raw s in
  let rule_of (r : Parser.raw_rule) =
    let head = datom_of_raw ~default_peer:None r.Parser.head in
    let body =
      List.map
        (function
          | Parser.Ratom a -> Drule.Pos (datom_of_raw ~default_peer:(Some head.Datom.peer) a)
          | Parser.Rneq (x, y) -> Drule.Neq (x, y)
          | Parser.Rneg a ->
            (* the paper restricts dDatalog to positive programs *)
            raise (Parse_error (Printf.sprintf "negation (not %s) is not allowed in dDatalog" a.Parser.rel)))
        r.Parser.body
    in
    Drule.make head body
  in
  make (List.map rule_of raw)

let pp ppf t =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ()) Drule.pp ppf
    t.rules

let to_string t = Format.asprintf "%a" pp t

(** The dDatalog program of the paper's Figure 3: three peers r, s, t,
    intensional R, S, T and base A, B, C. *)
let figure3 () : t =
  parse
    {| R@r(X, Y) :- A@r(X, Y).
       R@r(X, Y) :- S@s(X, Z), T@t(Z, Y).
       S@s(X, Y) :- R@r(X, Y), B@s(Y, Z).
       T@t(X, Y) :- C@t(X, Y). |}
