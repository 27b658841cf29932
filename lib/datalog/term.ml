(** Hash-consed first-order terms with function symbols.

    The paper departs from classical Datalog by allowing function symbols
    (Section 3): they are needed to create the identities of unfolding nodes
    (the Skolem functions [f], [g], [h] of Section 4). Variables are named by
    strings; rule-local scoping is the responsibility of the rule type.

    Every materialized diagnosis fact carries deep Skolem spines like
    [g(t, g(u, h(...)))], and the fact store, compiled joins and QSQ engines probe
    the same spines over and over. Terms are therefore hash-consed in the
    style of Filliâtre–Conchon ("Type-safe modular hash-consing"): one
    global weak table, guarded by one mutex so that peer domains of a
    parallel dQSQ run may intern concurrently, maps each structure to a
    unique physical representative. Thus

    - [equal] is physical equality [(==)],
    - [hash], [is_ground], [depth] and [size] are cached field reads,
    - maximal sharing means an unfolding's spines are stored once.

    Construction goes through the smart constructors [const] / [var] /
    [app] / [capp]; pattern matching goes through {!view}. The table is weak:
    terms unreachable from the program are collected by the GC. *)

type t = {
  node : node;
  tag : int;  (** unique per structure, in order of first interning *)
  hash : int;
  ground : bool;
  depth : int;
  size : int;
}

and node =
  | Const of Symbol.t
  | Var of string
  | App of Symbol.t * t list

let view t = t.node
let equal : t -> t -> bool = ( == )
let hash t = t.hash
let tag t = t.tag
let is_ground t = t.ground

(** Depth of a term: constants and variables have depth 1. Used to implement
    the "gadgets to prevent non terminating computations, such as bounding
    the depth of the unfolding" of Section 4.4. *)
let depth t = t.depth

(** Number of symbols in the term; used to approximate message sizes. *)
let size t = t.size

(* The weak hash-cons table. Children of an [App] node are already interned,
   so structural equality of candidate nodes only compares children by
   pointer — consing is O(arity), not O(term size). *)
module W = Weak.Make (struct
  type nonrec t = t

  let equal a b =
    match a.node, b.node with
    | Const x, Const y -> Symbol.equal x y
    | Var x, Var y -> String.equal x y
    | App (f, xs), App (g, ys) ->
      Symbol.equal f g
      && List.length xs = List.length ys
      && List.for_all2 ( == ) xs ys
    | (Const _ | Var _ | App _), _ -> false

  let hash t = t.hash
end)

(* One table, one mutex. The mutex makes find-or-add atomic, so every
   domain gets the same representative for a structure, and [==] stays
   structural equality even for terms that cross domains by reference
   (simulator messages are priced by the codec, not serialized). Tags come
   from a plain counter under the same mutex, drawn on the miss path only:
   a sequential run numbers its structures 0, 1, 2, ... in interning order.
   The table starts small and grows as it fills: every bucket is a weak
   array of its own, so a sparse table wastes words per entry (131072
   initial buckets raised the bench/perf [diagnose] heap peak from 11 MB
   to 38 MB). *)
let table = W.create 1024
let mu = Mutex.create ()
let next_tag = ref 0

(* Registered instruments (lib/obs): distinct structures interned vs
   constructor calls answered by an existing representative. *)
let interned_c = Obs.Metrics.counter "term.interned"
let hits_c = Obs.Metrics.counter "term.hashcons_hits"

let hashcons node ~hash ~ground ~depth ~size =
  let probe = { node; tag = -1; hash; ground; depth; size } in
  Mutex.lock mu;
  match W.find_opt table probe with
  | Some t ->
    Mutex.unlock mu;
    Obs.Metrics.incr hits_c;
    t
  | None ->
    let t = { probe with tag = !next_tag } in
    incr next_tag;
    W.add table t;
    Mutex.unlock mu;
    Obs.Metrics.incr interned_c;
    t

let cconst s =
  hashcons (Const s) ~hash:(Symbol.hash s) ~ground:true ~depth:1 ~size:1

let const s = cconst (Symbol.intern s)

let var x =
  hashcons (Var x) ~hash:((31 * Hashtbl.hash x) + 17) ~ground:false ~depth:1 ~size:1

let capp f args =
  let hash, ground, depth, size =
    List.fold_left
      (fun (h, g, d, sz) t -> ((h * 65599) + t.hash, g && t.ground, max d t.depth, sz + t.size))
      (Symbol.hash f + 7, true, 0, 1)
      args
  in
  hashcons (App (f, args)) ~hash ~ground ~depth:(depth + 1) ~size

let app f args = capp (Symbol.intern f) args

(** Total order on terms: creation order, O(1). Deterministic
    within a sequential run, but NOT stable across runs, processes, or
    domain schedules (parallel runs race on tag allocation) — any output
    that must be byte-identical orders terms with {!compare_structural}
    instead (the {!Set} and {!Map} below do). *)
let compare a b = Int.compare a.tag b.tag

(** Structural order (constants < variables < applications, then by symbol
    {e name} and arguments); independent of interning history, so
    deterministic output paths — report rendering, canonical diagnosis
    order, sorted dumps — stay byte-identical across runs AND across
    processes that interned symbols in different orders (a warm server vs
    a fresh one). [Symbol.compare] (id order) must never appear here: ids
    follow interning history. *)
let rec compare_structural a b =
  if a == b then 0
  else
    match a.node, b.node with
    | Const x, Const y -> Symbol.compare_name x y
    | Const _, (Var _ | App _) -> -1
    | Var _, Const _ -> 1
    | Var x, Var y -> String.compare x y
    | Var _, App _ -> -1
    | App _, (Const _ | Var _) -> 1
    | App (f, xs), App (g, ys) ->
      let c = Symbol.compare_name f g in
      if c <> 0 then c else List.compare compare_structural xs ys

let rec vars_fold f acc t =
  match t.node with
  | Const _ -> acc
  | Var x -> f acc x
  | App (_, args) ->
    if t.ground then acc else List.fold_left (vars_fold f) acc args

let vars t =
  List.rev (vars_fold (fun acc x -> if List.mem x acc then acc else x :: acc) [] t)

let rec pp ppf t =
  match t.node with
  | Const s -> Symbol.pp ppf s
  | Var x -> Format.pp_print_string ppf x
  | App (f, args) ->
    Format.fprintf ppf "%a(%a)" Symbol.pp f
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp)
      args

let to_string t = Format.asprintf "%a" pp t

(* Introspection for tests and diagnostics: number of live (not yet
   collected) terms in the hash-cons table. *)
let live_terms () = Mutex.protect mu (fun () -> W.count table)

module As_key = struct
  type nonrec t = t

  (* Cached depth first, then structure. Still history-independent (depth
     is a structural property), but O(1) on the common case: two events of
     one causal chain always sit at distinct depths, so ordering a
     configuration's k chain events costs O(k log k) instead of the
     O(k^2 log k) that full structural walks over deep Skolem spines take.
     Same-depth terms (concurrent branches) fall back to
     [compare_structural], which stops at the first shared subterm. *)
  let compare a b =
    let c = Int.compare a.depth b.depth in
    if c <> 0 then c else compare_structural a b
end

module Set = Set.Make (As_key)
module Map = Map.Make (As_key)

(* Tags are dense and drawn in creation order, so a tag is its own hash:
   terms built together land in neighbouring buckets. (It beat both the
   polymorphic hash and a multiplicative mix on the report and
   checkpoint paths.) *)
module Tag_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t
end)
