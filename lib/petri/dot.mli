(** Graphviz (DOT) export of nets and unfoldings — the paper asks for the
    diagnosis to be "represented (preferably graphically) in a compact
    form" for the human supervisor. *)

val net_to_string : Net.t -> string

val unfolding_to_string : ?highlight:Unfolding.Int_set.t -> Unfolding.t -> string
(** Events in [highlight] (e.g. a diagnosis configuration, like the shading
    of Fig. 2) are filled. *)
