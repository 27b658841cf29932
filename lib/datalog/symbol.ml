(** Interned symbols.

    Constants, function names and relation names are interned strings: each
    distinct string is mapped to a unique small integer, so that equality and
    hashing of symbols are O(1) regardless of the length of the name. The
    intern table is global and append-only, which is safe because symbols are
    never deleted during a run.

    One mutex serializes [intern] and [fresh]. Readers never take it:
    [name] reads an atomically published snapshot of the names array, so
    [compare_name] — which sits under every structural term comparison and
    every canonical output sort — is lock-free from any domain. *)

type t = int

let mu = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 1024

(* Publication order (all [Atomic.set], i.e. sequentially consistent):
   entry write into the (possibly fresh) array, then [names], then [next].
   Readers check [next] first and only then load [names]: seeing id < next
   therefore guarantees the loaded array both covers [id] and carries its
   entry, with no lock on the read side. *)
let names : string array Atomic.t = Atomic.make (Array.make 1024 "")
let next = Atomic.make 0

(* Call with [mu] held. *)
let intern_locked s =
  match Hashtbl.find_opt table s with
  | Some id -> id
  | None ->
    let id = Atomic.get next in
    let arr = Atomic.get names in
    let arr =
      if id >= Array.length arr then begin
        let bigger = Array.make (2 * Array.length arr) "" in
        Array.blit arr 0 bigger 0 (Array.length arr);
        bigger
      end
      else arr
    in
    arr.(id) <- s;
    Atomic.set names arr;
    Atomic.set next (id + 1);
    Hashtbl.add table s id;
    id

let intern s = Mutex.protect mu (fun () -> intern_locked s)

let name id =
  if id < 0 || id >= Atomic.get next then invalid_arg "Symbol.name: unknown symbol"
  else (Atomic.get names).(id)

let count () = Atomic.get next
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

(* Name order, not id order: two processes that intern the same symbols in
   different orders (different tenant load order, different experiment
   prefix) assign different ids, so id order would leak interning history
   into every "canonical" sort built on it. Equal ids short-circuit without
   touching the table. *)
let compare_name (a : t) (b : t) = if a = b then 0 else String.compare (name a) (name b)
let hash (a : t) = a
let pp ppf id = Format.pp_print_string ppf (name id)

(* A lookup holds [mu] but a build does not, so builders may intern and
   nest memos. Two domains that miss together both build; interning is
   idempotent, so they build the same symbol. *)
let memo tbl key build =
  match Mutex.protect mu (fun () -> Hashtbl.find_opt tbl key) with
  | Some s -> s
  | None ->
    let s = build () in
    Mutex.protect mu (fun () -> Hashtbl.replace tbl key s);
    s

(* A private namespace for generated symbols (gensym), used by rewriters to
   create fresh relation names that cannot clash with user symbols. *)
let fresh_count = ref 0 (* guarded by [mu] *)

let fresh prefix =
  Mutex.protect mu (fun () ->
      incr fresh_count;
      intern_locked (Printf.sprintf "%s#%d" prefix !fresh_count))
