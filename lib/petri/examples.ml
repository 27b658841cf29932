(** Ready-made nets: the paper's running example and some scenario builders.

    The paper's Figure 1 is not reproduced in the text we work from; the net
    below is a faithful reconstruction from every constraint the prose
    states: peers [p1], [p2]; alarm/peer labels with [alpha(i) = b],
    [phi(i) = p1]; presets [•i = {1,7}], postsets [i• = {2,3}]; transitions
    [i], [ii] and [v] enabled initially; and the diagnosis behaviour of
    Section 2 — the alarm sequences [(b,p1)(a,p2)(c,p1)] and
    [(b,p1)(c,p1)(a,p2)] are explainable while [(c,p1)(b,p1)(a,p2)] is not. *)

let running_example () : Net.t =
  Net.make
    ~places:
      [ Net.mk_place ~peer:"p1" "1";
        Net.mk_place ~peer:"p1" "2";
        Net.mk_place ~peer:"p1" "3";
        Net.mk_place ~peer:"p2" "4";
        Net.mk_place ~peer:"p2" "5";
        Net.mk_place ~peer:"p2" "6";
        Net.mk_place ~peer:"p2" "7" ]
    ~transitions:
      [ Net.mk_transition ~peer:"p1" ~alarm:"b" ~pre:[ "1"; "7" ] ~post:[ "2"; "3" ] "i";
        Net.mk_transition ~peer:"p2" ~alarm:"a" ~pre:[ "4" ] ~post:[ "5" ] "ii";
        Net.mk_transition ~peer:"p1" ~alarm:"c" ~pre:[ "2" ] ~post:[] "iii";
        Net.mk_transition ~peer:"p1" ~alarm:"c" ~pre:[ "3"; "5" ] ~post:[] "iv";
        Net.mk_transition ~peer:"p2" ~alarm:"a" ~pre:[ "6" ] ~post:[] "v" ]
    ~marking:[ "1"; "4"; "6"; "7" ]

(** The running example's alarm sequence from Section 2. *)
let running_alarms () : Alarm.t =
  Alarm.make [ ("b", "p1"); ("a", "p2"); ("c", "p1") ]

(** A ring of [n] peers modelling the telecom scenario of the introduction:
    each peer runs a working/degraded cycle and can propagate a fault to its
    successor. Per peer [k]: [failK] (alarm [fault]) degrades the peer and
    marks the link to peer [k+1]; [recvK] (alarm [warn], held by the
    receiver) consumes the link and degrades peer [k+1] in turn; [fixlK] /
    [fixrK] (alarm [clear]) repair. Safety holds by two per-peer place
    invariants: [ok + degl + degr = 1] and [slot + lnk + ack = 1]. *)
let ring ~peers:n () : Net.t =
  if n < 2 then invalid_arg "ring: need at least 2 peers";
  let peer k = Printf.sprintf "peer%d" k in
  let ok k = Printf.sprintf "ok%d" k
  and degl k = Printf.sprintf "degl%d" k
  and degr k = Printf.sprintf "degr%d" k
  and lnk k = Printf.sprintf "lnk%d" k
  and ack k = Printf.sprintf "ack%d" k
  and slot k = Printf.sprintf "slot%d" k in
  let places =
    List.concat_map
      (fun k ->
        [ Net.mk_place ~peer:(peer k) (ok k);
          Net.mk_place ~peer:(peer k) (degl k);
          Net.mk_place ~peer:(peer k) (degr k);
          Net.mk_place ~peer:(peer k) (lnk k);
          Net.mk_place ~peer:(peer k) (ack k);
          Net.mk_place ~peer:(peer k) (slot k) ])
      (List.init n Fun.id)
  in
  let transitions =
    List.concat_map
      (fun k ->
        let next = (k + 1) mod n in
        [ (* local fault: degrade and mark the link to the successor *)
          Net.mk_transition ~peer:(peer k) ~alarm:"fault"
            ~pre:[ ok k; slot k ]
            ~post:[ degl k; lnk k ]
            (Printf.sprintf "fail%d" k);
          (* fault propagation: the successor sees the link, degrades, and
             acknowledges so that peer k may eventually fail again *)
          Net.mk_transition ~peer:(peer next) ~alarm:"warn"
            ~pre:[ lnk k; ok next ]
            ~post:[ degr next; ack k ]
            (Printf.sprintf "recv%d" k);
          (* repair after a local fault (needs the propagation to be done) *)
          Net.mk_transition ~peer:(peer k) ~alarm:"clear"
            ~pre:[ degl k; ack k ]
            ~post:[ ok k; slot k ]
            (Printf.sprintf "fixl%d" k);
          (* repair after a propagated fault *)
          Net.mk_transition ~peer:(peer k) ~alarm:"clear"
            ~pre:[ degr k ]
            ~post:[ ok k ]
            (Printf.sprintf "fixr%d" k) ])
      (List.init n Fun.id)
  in
  let marking = List.concat_map (fun k -> [ ok k; slot k ]) (List.init n Fun.id) in
  Net.make ~places ~transitions ~marking

(** A chain of [n] independent two-state toggles on one peer; its unfolding
    grows combinatorially with [n] — used to show that goal-directed
    diagnosis materializes far less than the full unfolding. *)
let toggles ~width:n ~peer () : Net.t =
  let places =
    List.concat_map
      (fun k ->
        [ Net.mk_place ~peer (Printf.sprintf "off%d" k);
          Net.mk_place ~peer (Printf.sprintf "on%d" k) ])
      (List.init n Fun.id)
  in
  let transitions =
    List.concat_map
      (fun k ->
        [ Net.mk_transition ~peer ~alarm:(Printf.sprintf "up%d" k)
            ~pre:[ Printf.sprintf "off%d" k ]
            ~post:[ Printf.sprintf "on%d" k ]
            (Printf.sprintf "t_up%d" k);
          Net.mk_transition ~peer ~alarm:(Printf.sprintf "down%d" k)
            ~pre:[ Printf.sprintf "on%d" k ]
            ~post:[ Printf.sprintf "off%d" k ]
            (Printf.sprintf "t_down%d" k) ])
      (List.init n Fun.id)
  in
  let marking = List.init n (fun k -> Printf.sprintf "off%d" k) in
  Net.make ~places ~transitions ~marking

(** Two synchronized 3-place cycles: peers [p] and [q] exchange a token
    each round, and the first alarm of every round on each peer is
    ambiguous — a conflict trap ([pa'], [qd']). The trap lineage stalls
    on its own peer immediately and starves on the sync token within one
    round, so the prefix GC can prove it conflict-dead: the live set of a
    streaming diagnosis stays flat however long the stream. *)
let sync_cycles () : Net.t =
  let place peer id = Net.mk_place ~peer id in
  let tr peer alarm pre post id = Net.mk_transition ~peer ~alarm ~pre ~post id in
  Net.make
    ~places:
      [ place "p" "p0"; place "p" "p1"; place "p" "p2"; place "p" "pX";
        place "p" "sp"; place "q" "q0"; place "q" "q1"; place "q" "q2";
        place "q" "qX"; place "q" "sq" ]
    ~transitions:
      [ tr "p" "a" [ "p0" ] [ "p1" ] "pa";
        tr "p" "a" [ "p0" ] [ "pX" ] "pa'";  (* the conflict trap on p *)
        tr "p" "b" [ "p1" ] [ "p2" ] "pb";
        tr "p" "c" [ "p2"; "sq" ] [ "p0"; "sp" ] "pc";  (* sync q -> p *)
        tr "q" "d" [ "q0" ] [ "q1" ] "qd";
        tr "q" "d" [ "q0" ] [ "qX" ] "qd'";  (* the conflict trap on q *)
        tr "q" "e" [ "q1" ] [ "q2" ] "qe";
        tr "q" "f" [ "q2"; "sp" ] [ "q0"; "sq" ] "qf" ]  (* sync p -> q *)
    ~marking:[ "p0"; "q0"; "sp" ]

(* the unique firable alarm order per round: a b (p), d e f (q), c (p) *)
let sync_cycles_alarm k =
  [| ("a", "p"); ("b", "p"); ("d", "q"); ("e", "q"); ("f", "q"); ("c", "p") |].(k mod 6)
