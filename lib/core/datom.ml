(** Located atoms [R@p(e1, ..., en)] — the syntax of dDatalog (Section 3).

    The peer name [p] is a constant (unlike [32], where it may be a
    variable): "the intuition is that R(e1,...,en) holds at peer p". Located
    relations are identified by the pair (relation name, peer); two peers may
    reuse the same relation name for different relations. *)

open Datalog

type t = { rel : string; peer : string; args : Term.t list }

let make ~rel ~peer args = { rel; peer; args }

let equal a b =
  String.equal a.rel b.rel && String.equal a.peer b.peer
  && List.length a.args = List.length b.args
  && List.for_all2 Term.equal a.args b.args

let vars a =
  let add acc x = if List.mem x acc then acc else x :: acc in
  List.rev (List.fold_left (Term.vars_fold add) [] a.args)

(** The located relation as an interned symbol ["R@p"]. The ['@'] separator
    cannot occur in parsed relation names, so mangled names never collide.
    This lets every peer reuse the centralized engine on its own store. *)
let mangle_rel ~rel ~peer = Symbol.intern (Printf.sprintf "%s@%s" rel peer)

let mangled_sym a = mangle_rel ~rel:a.rel ~peer:a.peer

(** Split a mangled symbol back into (relation, peer). *)
let unmangle (sym : Symbol.t) : (string * string) option =
  let name = Symbol.name sym in
  match String.index_opt name '@' with
  | None -> None
  | Some i ->
    Some (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))

(** Conversion to a plain atom over the mangled relation symbol. *)
let to_atom a : Atom.t = Atom.cmake (mangled_sym a) a.args

(** Conversion to a plain atom ignoring the peer ("the local version
    P_local of the program, ignoring the locations", Theorem 1). *)
let to_local_atom a : Atom.t = Atom.make a.rel a.args

(** The canonical translation to the global Datalog program P^g: each n-ary
    [R@p(t1,...,tn)] becomes the (n+1)-ary [Rg(t1,...,tn,p)]. *)
let to_global_atom a : Atom.t =
  Atom.make (a.rel ^ "g") (a.args @ [ Term.const a.peer ])

let of_atom (atom : Atom.t) : t option =
  match unmangle atom.Atom.rel with
  | Some (rel, peer) -> Some { rel; peer; args = atom.Atom.args }
  | None -> None

let pp ppf a =
  if a.args = [] then Format.fprintf ppf "%s@%s" a.rel a.peer
  else
    Format.fprintf ppf "%s@%s(%a)" a.rel a.peer
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Term.pp)
      a.args

let to_string a = Format.asprintf "%a" pp a
