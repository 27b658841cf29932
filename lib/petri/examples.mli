(** Ready-made nets: the paper's running example and scenario builders. *)

val running_example : unit -> Net.t
(** A faithful reconstruction of the Figure 1 net from the constraints the
    paper's prose states (labels, presets, initially enabled transitions,
    and the diagnosis behaviour of Section 2). Two peers [p1], [p2]; the
    alarm sequences [(b,p1)(a,p2)(c,p1)] and [(b,p1)(c,p1)(a,p2)] are
    explainable while [(c,p1)(b,p1)(a,p2)] is not. *)

val running_alarms : unit -> Alarm.t
(** The Section 2 alarm sequence [(b,p1)(a,p2)(c,p1)]. *)

val ring : peers:int -> unit -> Net.t
(** The telecom scenario of the introduction: a ring of peers with
    fail / propagate / repair cycles (alarms [fault], [warn], [clear]).
    Safe by two per-peer place invariants. *)

val toggles : width:int -> peer:string -> unit -> Net.t
(** [width] independent two-state toggles on one peer; the unfolding grows
    combinatorially with [width] — used to contrast goal-directed diagnosis
    with full-unfolding materialization. *)

val sync_cycles : unit -> Net.t
(** Two synchronized 3-place cycles on peers [p] and [q] that exchange a
    token each round; the first alarm of every round on each peer is
    ambiguous (a conflict trap that dies within one round). A long
    stream over it keeps a streaming diagnosis's live set flat — the
    workload of the streaming latency and durability checks. *)

val sync_cycles_alarm : int -> string * string
(** The [k]-th alarm [(symbol, peer)] of the unique firable order of
    {!sync_cycles}, six alarms per round: [a b] on [p], [d e f] on [q],
    [c] on [p]. *)
