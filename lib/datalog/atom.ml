(** Atoms [R(e1, ..., en)] over a relation symbol and a list of terms. *)

type t = { rel : Symbol.t; args : Term.t list }

let make rel args = { rel = Symbol.intern rel; args }
let cmake rel args = { rel; args }

let equal a b =
  Symbol.equal a.rel b.rel
  && List.length a.args = List.length b.args
  && List.for_all2 Term.equal a.args b.args

let hash a =
  List.fold_left (fun acc t -> (acc * 65599) + Term.hash t) (Symbol.hash a.rel) a.args

let is_ground a = List.for_all Term.is_ground a.args

let vars a =
  let add acc x = if List.mem x acc then acc else x :: acc in
  List.rev (List.fold_left (Term.vars_fold add) [] a.args)

let pp ppf a =
  if a.args = [] then Symbol.pp ppf a.rel
  else
    Format.fprintf ppf "%a(%a)" Symbol.pp a.rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Term.pp)
      a.args

let to_string a = Format.asprintf "%a" pp a
