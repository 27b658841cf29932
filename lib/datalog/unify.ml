(** Syntactic unification with occurs check.

    The engine uses unification both for rule evaluation (matching body atoms
    against stored facts — where the fact side is ground, so this degenerates
    to one-way matching) and for the QSQ rewriting, where genuine two-way
    unification of non-ground terms occurs (e.g. unifying a subquery
    [trans(x, g(u,c), g(v,c'))] with a rule head [trans(f(c,u,v), u, v)],
    cf. Section 4).

    Hash-consing makes two short-circuits sound and O(1): physically equal
    terms unify with no new bindings, and a ground pattern matches a ground
    target iff they are the same pointer. *)

exception Clash

let rec occurs s x (t : Term.t) =
  if Term.is_ground t then false
  else
    match Term.view t with
    | Term.Const _ -> false
    | Term.Var y -> (
      if String.equal x y then true
      else match Subst.find y s with Some u -> occurs s x u | None -> false)
    | Term.App (_, args) -> List.exists (occurs s x) args

(* Walk a term down to its representative under the substitution. *)
let rec walk s (t : Term.t) =
  match Term.view t with
  | Term.Var x -> (match Subst.find x s with Some u -> walk s u | None -> t)
  | Term.Const _ | Term.App _ -> t

let rec unify_acc s (a : Term.t) (b : Term.t) =
  let a = walk s a and b = walk s b in
  if a == b then s
  else
    match Term.view a, Term.view b with
    | Term.Const x, Term.Const y -> if Symbol.equal x y then s else raise Clash
    | Term.Var x, _ ->
      if occurs s x b then raise Clash else Subst.bind x (Subst.apply s b) s
    | _, Term.Var x ->
      if occurs s x a then raise Clash else Subst.bind x (Subst.apply s a) s
    | Term.App (f, xs), Term.App (g, ys) ->
      if (not (Symbol.equal f g)) || List.length xs <> List.length ys then raise Clash
      else List.fold_left2 unify_acc s xs ys
    | (Term.Const _ | Term.App _), (Term.Const _ | Term.App _) -> raise Clash

(** Most general unifier of two terms, extending an initial substitution.
    The result is idempotent. *)
let unify ?(init = Subst.empty) a b =
  match unify_acc init a b with
  | s ->
    (* Normalize to an idempotent substitution so [Subst.apply] is one-pass. *)
    let s = Subst.of_list (List.map (fun (x, t) -> (x, Subst.apply s t)) (Subst.bindings s)) in
    Some s
  | exception Clash -> None

(** One-way matching: find [s] with [Subst.apply s pattern = target], where
    [target] must be ground. Faster than full unification and used in the
    fact-store inner loop. *)
let match_term ?(init = Subst.empty) (pattern : Term.t) (target : Term.t) =
  let rec go s (p : Term.t) (t : Term.t) =
    if p == t then s
    else if Term.is_ground p then
      (* two distinct ground hash-consed terms can never match *)
      raise Clash
    else
      match Term.view p, Term.view t with
      | Term.Var x, _ -> (
        match Subst.find x s with
        | Some u -> if Term.equal u t then s else raise Clash
        | None -> Subst.bind x t s)
      | Term.App (f, ps), Term.App (g, ts) ->
        if Symbol.equal f g && List.length ps = List.length ts then List.fold_left2 go s ps ts
        else raise Clash
      | (Term.Const _ | Term.App _), (Term.Const _ | Term.Var _ | Term.App _) -> raise Clash
  in
  match go init pattern target with s -> Some s | exception Clash -> None

let match_lists ?(init = Subst.empty) patterns targets =
  if List.length patterns <> List.length targets then None
  else
    let rec go s ps ts =
      match ps, ts with
      | [], [] -> Some s
      | p :: ps', t :: ts' -> (
        match match_term ~init:s p t with Some s' -> go s' ps' ts' | None -> None)
      | _, _ -> None
    in
    go init patterns targets
