(** Messages exchanged by peers during distributed evaluation.

    dQSQ interleaves two flows over the same asynchronous network (Remark 2:
    "the dQSQ computation, and the generation of results, may start even
    before the rewriting is complete"):
    - rewriting-phase messages: {!Delegate} carries the remainder of a rule
      to the peer owning the next relation (the paper's rule (†));
    - evaluation-phase messages: {!Subscribe} asks the owner of a relation to
      push its tuples, and {!Fact} carries one tuple.
    Distributed naive evaluation uses {!Activate} instead of delegations.

    A delegation carries only what its receiver cannot rebuild: its dedup
    {!key}, the relation of its previous supplementary atom and the
    walk's bound variables (that atom's variables) are functions of the
    other fields. A subscription or a fact carries its
    relation's symbol; when that is a located supplementary relation, the
    {!sup} registry gives its parts, which is what the wire writes. *)

open Datalog

type delegation = {
  d_origin_rel : string;  (** relation of the rule being rewritten *)
  d_origin_ad : string;  (** its adornment string *)
  d_rule_index : int;  (** index of the rule among the origin's rules *)
  d_pos : int;  (** next supplementary position *)
  d_lit_index : int;  (** index of the next literal in the original body *)
  d_prev_args : Term.t list;
      (** arguments of sup_{i,j-1}; its relation is the origin's
          supplementary relation at [d_pos], located at [d_prev_owner] *)
  d_prev_owner : string;  (** peer holding sup_{i,j-1} *)
  d_remaining : Drule.literal list;  (** literals still to process *)
  d_pending : (Term.t * Term.t) list;  (** disequalities not yet ground *)
  d_head : Datom.t;  (** original rule head (unadorned, located) *)
}

(* "if a peer receives the same request from different peers, it reuses
   the same machinery": origin rule + position, or its answer rule *)
let key d =
  if d.d_remaining = [] then
    Printf.sprintf "%s^%s/%d@answer" d.d_origin_rel d.d_origin_ad d.d_rule_index
  else Printf.sprintf "%s^%s/%d@%d" d.d_origin_rel d.d_origin_ad d.d_rule_index d.d_lit_index

type sup = { origin : string; ad : string; rule : int; pos : int; owner : string }

(* Both directions of the registry, under one lock: builders run on any
   domain, and every channel encoder and decoder reads it. *)
let sup_mu = Mutex.create ()
let sup_syms : (sup, Symbol.t) Hashtbl.t = Hashtbl.create 64
let sup_of_sym : (Symbol.t, sup) Hashtbl.t = Hashtbl.create 64

let find_sup p = Mutex.protect sup_mu (fun () -> Hashtbl.find_opt sup_syms p)
let sup_parts s = Mutex.protect sup_mu (fun () -> Hashtbl.find_opt sup_of_sym s)

(* [build] runs unlocked, since it interns; two domains that miss together
   build the same symbol. *)
let sup_symbol p build =
  match find_sup p with
  | Some s -> s
  | None ->
    let s = build () in
    Mutex.protect sup_mu (fun () ->
        Hashtbl.replace sup_syms p s;
        Hashtbl.replace sup_of_sym s p);
    s

type t =
  | Activate of string  (** relation name to compute (distributed naive) *)
  | Subscribe of Symbol.t  (** mangled relation whose tuples the sender wants *)
  | Fact of Atom.t  (** one tuple, over its mangled relation symbol *)
  | Delegate of delegation
  | Batch of t list
      (** one envelope: everything a peer flushes to one destination in a
          single handler activation travels as one message *)

let rec describe = function
  | Activate r -> Printf.sprintf "activate %s" r
  | Subscribe s -> Printf.sprintf "subscribe %s" (Symbol.name s)
  | Fact a -> Printf.sprintf "fact %s" (Atom.to_string a)
  | Delegate d -> Printf.sprintf "delegate %s" (key d)
  | Batch [ m ] -> describe m
  | Batch ms -> Printf.sprintf "batch[%d]" (List.length ms)

let rec is_fact = function
  | Fact _ -> true
  | Batch ms -> ms <> [] && List.for_all is_fact ms
  | Activate _ | Subscribe _ | Delegate _ -> false

let is_control m = not (is_fact m)
