(** Datalog programs: finite sets of rules.

    Relations defined by some rule head are intensional (IDB); relations that
    only appear in bodies are extensional (EDB, "base relations ... given
    extensionally as facts" in the paper). Ground facts may be supplied
    either as body-less rules or through a separate {!Fact_store}. *)

type t = { rules : Rule.t list }

let make rules = { rules }
let rules t = t.rules
let size t = List.length t.rules

let head_relations t =
  List.sort_uniq Symbol.compare (List.map (fun r -> r.Rule.head.Atom.rel) t.rules)

let idb_relations = head_relations

let body_relations t =
  List.sort_uniq Symbol.compare
    (List.concat_map (fun r -> List.map (fun a -> a.Atom.rel) (Rule.body_atoms r)) t.rules)

let edb_relations t =
  let idb = idb_relations t in
  List.filter (fun r -> not (List.mem r idb)) (body_relations t)

let rules_for t rel =
  List.filter (fun r -> Symbol.equal r.Rule.head.Atom.rel rel) t.rules

(** Split body-less ground rules into initial facts. *)
let partition_facts t =
  let facts, rules =
    List.partition (fun r -> Rule.is_fact r && Atom.is_ground r.Rule.head) t.rules
  in
  (List.map (fun r -> r.Rule.head) facts, { rules })

let check_range_restricted t =
  List.fold_left
    (fun acc r ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match Rule.check_range_restricted r with
        | Ok () -> Ok ()
        | Error x -> Error (r, x)))
    (Ok ()) t.rules

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    Rule.pp ppf t.rules

let to_string t = Format.asprintf "%a" pp t
