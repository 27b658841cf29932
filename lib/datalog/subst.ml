(** Substitutions: finite maps from variable names to terms.

    Substitutions are kept idempotent by [Unify]: bindings never map a
    variable to a term containing a variable that is itself bound. [apply]
    therefore only needs one pass. *)

module M = Map.Make (String)

type t = Term.t M.t

let empty : t = M.empty
let find x (s : t) = M.find_opt x s
let bind x t (s : t) = M.add x t s
let bindings (s : t) = M.bindings s
let of_list l = List.fold_left (fun acc (x, t) -> M.add x t acc) M.empty l
let mem x (s : t) = M.mem x s
let cardinal = M.cardinal

(* Ground terms (in particular the deep Skolem spines of the diagnosis
   programs) are returned in O(1); a term none of whose variables are bound
   is returned physically unchanged, so hash-consed sharing survives
   substitution instead of being rebuilt spine by spine. *)
let rec apply (s : t) (t : Term.t) : Term.t =
  if Term.is_ground t then t
  else
    match Term.view t with
    | Term.Const _ -> t
    | Term.Var x -> (match M.find_opt x s with Some u -> apply s u | None -> t)
    | Term.App (f, args) ->
      let args' = List.map (apply s) args in
      if List.for_all2 ( == ) args args' then t else Term.capp f args'

(** [compose s1 s2] behaves as applying [s2] then [s1]. *)
let compose (s1 : t) (s2 : t) : t =
  let s2' = M.map (apply s1) s2 in
  M.union (fun _ v _ -> Some v) s2' s1

module S = Set.Make (String)

(** Restrict the substitution to the given variables. *)
let restrict vars (s : t) : t =
  let keep = S.of_list vars in
  M.filter (fun x _ -> S.mem x keep) s
