(** Messages exchanged by peers during distributed evaluation.

    dQSQ interleaves rewriting-phase messages ({!Delegate}, the paper's rule
    remainder (†)) and evaluation-phase messages ({!Subscribe}, {!Fact})
    over one asynchronous network (Remark 2). Distributed naive evaluation
    uses {!Activate}.

    A subscription and a fact name their relation by its symbol. In dQSQ
    that relation is a located supplementary relation, whose symbol is a
    function of its {!sup} parts: the registry below maps one to the
    other, so the wire can carry the parts and rebuild the symbol. *)

open Datalog

(** A delegation holds only what its receiver cannot rebuild. Its dedup
    key is {!key}, and the relation of [sup_{i,j-1}] is the origin's
    supplementary relation at [d_pos], located at [d_prev_owner]
    ([Qsq_engine] rebuilds it), so only its arguments are carried. The
    walk's bound variables are the variables of those arguments: they
    are all the bound variables the head, [d_remaining] or [d_pending]
    still need. *)
type delegation = {
  d_origin_rel : string;  (** located name of the relation being rewritten *)
  d_origin_ad : string;
  d_rule_index : int;
  d_pos : int;  (** next supplementary position *)
  d_lit_index : int;  (** next literal in the original body *)
  d_prev_args : Term.t list;  (** the arguments of [sup_{i,j-1}] *)
  d_prev_owner : string;  (** the peer holding [sup_{i,j-1}] *)
  d_remaining : Drule.literal list;
  d_pending : (Term.t * Term.t) list;  (** disequalities not yet ground *)
  d_head : Datom.t;  (** the original rule head *)
}

val key : delegation -> string
(** The dedup key — repeated requests reuse the machinery:
    ["R@p^ad/i@k"] for the walk resuming at literal [k] of rule [i], or
    ["R@p^ad/i@answer"] once no literal remains. *)

(** A located supplementary relation by its parts: [sup_{rule,pos}] of
    the rewriting of [origin] (a located relation ["R@p"]) under the
    adornment [ad], held at peer [owner]. *)
type sup = { origin : string; ad : string; rule : int; pos : int; owner : string }

val sup_symbol : sup -> (unit -> Symbol.t) -> Symbol.t
(** [sup_symbol p build] is the symbol registered for [p], else [build ()],
    which is then registered both ways. [build] must give the same symbol
    for the same parts. Safe from any domain. *)

val find_sup : sup -> Symbol.t option
(** The symbol {!sup_symbol} registered for these parts, if any. Interns
    nothing. *)

val sup_parts : Symbol.t -> sup option
(** The parts a symbol was registered with by {!sup_symbol}. *)

type t =
  | Activate of string
  | Subscribe of Symbol.t
  | Fact of Atom.t
  | Delegate of delegation
  | Batch of t list
      (** one envelope: everything a peer flushes to one destination in a
          single handler activation (batched fragment answers) *)

val describe : t -> string

val is_fact : t -> bool
(** [Fact], or a nonempty [Batch] of facts. *)

val is_control : t -> bool
