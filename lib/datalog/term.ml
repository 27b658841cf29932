(** Hash-consed first-order terms with function symbols.

    The paper departs from classical Datalog by allowing function symbols
    (Section 3): they are needed to create the identities of unfolding nodes
    (the Skolem functions [f], [g], [h] of Section 4). Variables are named by
    strings; rule-local scoping is the responsibility of the rule type.

    Every materialized diagnosis fact carries deep Skolem spines like
    [g(t, g(u, h(...)))], and the fact store, unifier and QSQ engines probe
    the same spines over and over. Terms are therefore hash-consed in the
    style of Filliâtre–Conchon ("Type-safe modular hash-consing"): a global
    weak table (sharded, with a per-shard mutex, so concurrent interning from
    multiple domains is safe) maps each structure to a unique physical
    representative; each domain additionally keeps a lock-free weak arena
    ({!Domain.DLS}) caching the representatives it has seen, so the hot
    path — re-consing a spine that already exists — never touches a shard
    mutex. Thus

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

(* The global table is sharded by hash, one weak table + mutex per shard,
   so concurrent cons calls from peer domains (parallel dQSQ) only contend
   when they hash to the same shard. Within a shard, [W.merge] under the
   mutex guarantees a unique physical representative per structure. *)
let shard_count = 16
let tables = Array.init shard_count (fun _ -> W.create 1024)
let locks = Array.init shard_count (fun _ -> Mutex.create ())

(* Tags are drawn in per-domain blocks (one atomic fetch-and-add per
   [tag_block] distinct structures, instead of one per constructor call),
   and only on the miss path. Gaps — from wasted block tails and from
   structures another domain interned first — are harmless: tags only feed
   the process-local [compare] below, which needs distinctness, not
   density or cross-run stability. *)
let next_tag = Atomic.make 0
let tag_block = 512

(* Domain-local intern arena: a *weak cache* of the global table's
   representatives, probed lock-free before touching a shard mutex.

   The ISSUE sketched private per-domain arenas with promotion deferred to
   Wire-encode time; that is unsound here, because terms cross domains by
   reference (simulator messages are not serialized between domains — the
   codec only *prices* them) and work stealing migrates peers between
   domains mid-run, so two private representatives of one structure could
   meet and break [equal = (==)]. Instead the global table stays the
   single source of truth and "promotion" is simply the arena's miss path
   through the shard lock: every representative a domain ever returns is
   already global, so [==] ≡ structural holds across domains by
   construction, and the hot path (hashcons hits outnumber distinct
   interns ~30:1 on the deep ring scenarios) costs no lock, no atomic —
   just a probe of an unshared weak set. The arena is weak, so it pins
   nothing: terms the GC collects simply miss and re-promote later. *)
type arena = { cache : W.t; mutable tag_next : int; mutable tag_limit : int }

let arena_key =
  Domain.DLS.new_key (fun () -> { cache = W.create 4096; tag_next = 0; tag_limit = 0 })

let draw_tag a =
  if a.tag_next >= a.tag_limit then begin
    let base = Atomic.fetch_and_add next_tag tag_block in
    a.tag_next <- base;
    a.tag_limit <- base + tag_block
  end;
  let tag = a.tag_next in
  a.tag_next <- tag + 1;
  tag

(* Registered instruments (lib/obs): distinct structures interned vs
   constructor calls answered by an existing representative (in the
   domain-local arena or the global table). *)
let interned_c = Obs.Metrics.counter "term.interned"
let hits_c = Obs.Metrics.counter "term.hashcons_hits"

let hashcons node ~hash ~ground ~depth ~size =
  let a = Domain.DLS.get arena_key in
  let probe = { node; tag = -1; hash; ground; depth; size } in
  match W.find_opt a.cache probe with
  | Some t ->
    Obs.Metrics.incr hits_c;
    t
  | None ->
    let candidate = { probe with tag = draw_tag a } in
    let i = hash land (shard_count - 1) in
    let mu = locks.(i) in
    Mutex.lock mu;
    let t = W.merge tables.(i) candidate in
    Mutex.unlock mu;
    W.add a.cache t;
    if t == candidate then Obs.Metrics.incr interned_c
    else Obs.Metrics.incr hits_c;
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

(** Total order on terms: creation-attempt order, O(1). Deterministic
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
let live_terms () =
  let n = ref 0 in
  Array.iteri
    (fun i table ->
      Mutex.lock locks.(i);
      n := !n + W.count table;
      Mutex.unlock locks.(i))
    tables;
  !n

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
