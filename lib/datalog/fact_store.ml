(** Mutable store of ground facts with lazy per-position indexing.

    Facts are grouped by relation symbol. For each relation we keep the
    insertion-ordered list of tuples plus a membership table. When a lookup
    arrives with a ground term at position [i], an index (hash table from the
    term at position [i] to the matching tuples) is built lazily for that
    position and maintained on subsequent insertions. This keeps the common
    joins of the diagnosis programs (which are bound on node-identity
    arguments) close to O(1) per matching tuple. *)

(* The generic [Hashtbl.hash] only samples a bounded prefix of a value; the
   diagnosis programs generate tuples sharing deep Skolem-term spines
   (configuration ids h(h(h(...)))), which would all collide and degrade
   the tables to linear scans. [Term.hash] is the full-depth structural
   hash, cached at hash-consing time, so hashing a tuple is O(arity) and
   tuple equality is a pointwise pointer comparison. *)
module Tuple_tbl = Hashtbl.Make (struct
  type t = Term.t list

  let equal = List.equal Term.equal
  let hash args = List.fold_left (fun acc t -> (acc * 65599) + Term.hash t) 3 args
end)

type rel_store = {
  mutable tuples : Term.t list list; (* reverse insertion order *)
  mutable n : int;
  members : unit Tuple_tbl.t;
  mutable indexes : (int list * Term.t list list Tuple_tbl.t) list;
      (* compound indexes: a sorted position mask maps the projection of a
         tuple onto those positions to the matching tuples *)
}

type t = {
  rels : (Symbol.t, rel_store) Hashtbl.t;
  mutable total : int;
}

(* Live-store population: incremented at [create], decremented by a GC
   finalizer — "live" meaning reachable, which is exactly the leak signal a
   long-running service wants to watch across thousands of sessions. The
   finalizer is [finalise_last]: it never reads the store, and a
   [Gc.finalise] callback would keep a dead store (tuples, tables, terms)
   alive for one more major cycle. *)
let live_g = Obs.Metrics.gauge "fact_store.live"

let create () =
  let t = { rels = Hashtbl.create 64; total = 0 } in
  Obs.Metrics.add_gauge live_g 1;
  Gc.finalise_last (fun () -> Obs.Metrics.add_gauge live_g (-1)) t;
  t

(** Clear every relation in place, keeping the relation table, membership
    tables, and index structures allocated (only their contents are
    dropped). A recycled store starts its next session with warm
    capacity instead of re-growing every hash table from scratch. *)
let reset t =
  Hashtbl.iter
    (fun _ rs ->
      rs.tuples <- [];
      rs.n <- 0;
      Tuple_tbl.clear rs.members;
      List.iter (fun (_, idx) -> Tuple_tbl.clear idx) rs.indexes)
    t.rels;
  t.total <- 0

(* Tables start small and grow: a dQSQ peer holds ~100 relations, most of
   them with a handful of tuples. *)
let rel_store t rel =
  match Hashtbl.find_opt t.rels rel with
  | Some rs -> rs
  | None ->
    let rs = { tuples = []; n = 0; members = Tuple_tbl.create 8; indexes = [] } in
    Hashtbl.add t.rels rel rs;
    rs

(* Project [args] onto the (sorted, ascending) position mask with a single
   merge walk — O(arity), not O(arity × |mask|). *)
let project_mask (mask : int list) (args : Term.t list) : Term.t list =
  let rec go i mask args =
    match mask, args with
    | [], _ | _, [] -> []
    | m :: mask', a :: args' ->
      if m = i then a :: go (i + 1) mask' args' else go (i + 1) mask args'
  in
  go 0 mask args

let mem t (a : Atom.t) =
  match Hashtbl.find_opt t.rels a.Atom.rel with
  | None -> false
  | Some rs -> Tuple_tbl.mem rs.members a.Atom.args

(** Add a ground atom; returns [true] iff the fact was not already present. *)
let add t (a : Atom.t) =
  if not (Atom.is_ground a) then
    invalid_arg (Printf.sprintf "Fact_store.add: non-ground fact %s" (Atom.to_string a));
  let rs = rel_store t a.Atom.rel in
  if Tuple_tbl.mem rs.members a.Atom.args then false
  else begin
    Tuple_tbl.add rs.members a.Atom.args ();
    rs.tuples <- a.Atom.args :: rs.tuples;
    rs.n <- rs.n + 1;
    List.iter
      (fun (mask, idx) ->
        let key = project_mask mask a.Atom.args in
        let prev = Option.value ~default:[] (Tuple_tbl.find_opt idx key) in
        Tuple_tbl.replace idx key (a.Atom.args :: prev))
      rs.indexes;
    t.total <- t.total + 1;
    true
  end

let count t = t.total

let count_rel t rel =
  match Hashtbl.find_opt t.rels rel with None -> 0 | Some rs -> rs.n

let relations t =
  Hashtbl.fold (fun rel rs acc -> if rs.n > 0 then rel :: acc else acc) t.rels []
  |> List.sort Symbol.compare

let tuples_of t rel =
  match Hashtbl.find_opt t.rels rel with None -> [] | Some rs -> List.rev rs.tuples

let facts_of t rel = List.map (fun args -> Atom.cmake rel args) (tuples_of t rel)

let iter_extents t f =
  List.iter (fun rel -> f rel (Hashtbl.find t.rels rel).tuples) (relations t)

let all t =
  List.concat_map (fun rel -> facts_of t rel) (relations t)

(* Registered instruments (see lib/obs): probe/candidate/scan accounting
   stays on in production, index builds are timed into a histogram. *)
let probes_c = Obs.Metrics.counter "fact_store.probes"
let candidates_c = Obs.Metrics.counter "fact_store.candidates"
let full_scans_c = Obs.Metrics.counter "fact_store.full_scans"
let index_builds_c = Obs.Metrics.counter "fact_store.index_builds"
let index_build_h = Obs.Metrics.histogram "fact_store.index_build_seconds"

let ensure_index rs (mask : int list) =
  match List.assoc_opt mask rs.indexes with
  | Some idx -> idx
  | None ->
    let t0 = Obs.Clock.now_s () in
    let idx = Tuple_tbl.create (max 8 rs.n) in
    List.iter
      (fun args ->
        let key = project_mask mask args in
        let prev = Option.value ~default:[] (Tuple_tbl.find_opt idx key) in
        Tuple_tbl.replace idx key (args :: prev))
      rs.tuples;
    rs.indexes <- (mask, idx) :: rs.indexes;
    Obs.Metrics.incr index_builds_c;
    Obs.Metrics.observe index_build_h (Obs.Clock.now_s () -. t0);
    idx

type extent = rel_store

let extent t rel = Hashtbl.find_opt t.rels rel

(** The candidate tuples of one probe: those whose arguments at the
    ascending positions [mask] are the terms of [key], from the compound
    index over [mask] (built on first use), or every tuple when [mask] is
    empty (a full scan). *)
let probe rs (mask : int list) (key : Term.t list) =
  Obs.Metrics.incr probes_c;
  let candidates =
    match mask with
    | [] -> rs.tuples
    | _ :: _ -> Option.value ~default:[] (Tuple_tbl.find_opt (ensure_index rs mask) key)
  in
  let n = List.length candidates in
  Obs.Metrics.incr ~by:n candidates_c;
  if mask = [] then Obs.Metrics.incr ~by:n full_scans_c;
  candidates

(* The ground positions of the pattern under [s] (sorted ascending, with
   their ground values): the compound index key covering every bound
   argument, so a lookup returns only genuinely matching candidates. *)
let ground_positions s (args : Term.t list) =
  let rec go i = function
    | [] -> ([], [])
    | a :: rest ->
      let mask, key = go (i + 1) rest in
      let a = Subst.apply s a in
      if Term.is_ground a then (i :: mask, a :: key) else (mask, key)
  in
  go 0 args

(** The substitutions [s] extending [init] such that [Subst.apply s pattern]
    is a stored fact, newest fact first. *)
let matches t (pattern : Atom.t) ~init =
  match extent t pattern.Atom.rel with
  | None -> []
  | Some rs ->
    let mask, key = ground_positions init pattern.Atom.args in
    List.filter_map
      (fun args -> Unify.match_lists ~init pattern.Atom.args args)
      (probe rs mask key)

(* Bulk copy: share the (immutable) tuples list, duplicate the membership
   table, and leave indexes to be rebuilt lazily on first bound probe —
   per-fact [add] would re-check membership and re-maintain indexes for
   nothing. *)
let copy t =
  let rels = Hashtbl.create (max 64 (Hashtbl.length t.rels)) in
  Hashtbl.iter
    (fun rel rs ->
      Hashtbl.add rels rel
        { tuples = rs.tuples; n = rs.n; members = Tuple_tbl.copy rs.members;
          indexes = [] })
    t.rels;
  let t' = { rels; total = t.total } in
  Obs.Metrics.add_gauge live_g 1;
  Gc.finalise_last (fun () -> Obs.Metrics.add_gauge live_g (-1)) t';
  t'

(** Facts of [t] as a sorted list of strings; handy in tests for equality
    modulo ordering. *)
let to_sorted_strings t = List.sort String.compare (List.map Atom.to_string (all t))
