(* Tests for the online diagnoser and the report module. *)

open Datalog
open Diagnosis

let rng seed = Random.State.make [| seed |]
let alarms l = Petri.Alarm.make l
let running_net () = Petri.Net.binarize (Petri.Examples.running_example ())

let check_diag msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s\nexpected:\n%s\nactual:\n%s" msg
       (Canon.diagnosis_to_string expected) (Canon.diagnosis_to_string actual))
    true
    (Canon.equal_diagnosis expected actual)

(* ------------------------------------------------------------------ *)
(* Online                                                             *)
(* ------------------------------------------------------------------ *)

let test_online_running_example () =
  let net = running_net () in
  let t = Online.start net in
  (* nothing observed: the empty explanation *)
  Alcotest.(check int) "empty observation" 1 (List.length (Online.diagnosis t));
  Online.observe t ("b", "p1");
  let d1 = Online.diagnosis t in
  Alcotest.(check int) "after (b,p1): one explanation" 1 (List.length d1);
  Online.observe t ("a", "p2");
  Online.observe t ("c", "p1");
  let batch = (Product.diagnose net (Petri.Examples.running_alarms ())).Product.diagnosis in
  check_diag "online == batch after the full sequence" batch (Online.diagnosis t)

let test_online_prefixes_match_batch () =
  let net = running_net () in
  let seq = [ ("b", "p1"); ("a", "p2"); ("c", "p1") ] in
  let t = Online.start net in
  List.iteri
    (fun i alarm ->
      Online.observe t alarm;
      let prefix = alarms (List.filteri (fun j _ -> j <= i) seq) in
      let batch = (Product.diagnose net prefix).Product.diagnosis in
      check_diag (Printf.sprintf "prefix of length %d" (i + 1)) batch (Online.diagnosis t))
    seq

let test_online_cross_peer_dependency () =
  (* an early alarm's event can causally need an event of a later alarm from
     another peer: partial states must survive between observations *)
  let net =
    Petri.Net.binarize
      (Petri.Net.make
         ~places:
           [ Petri.Net.mk_place ~peer:"q" "s0";
             Petri.Net.mk_place ~peer:"p" "s1";
             Petri.Net.mk_place ~peer:"p" "s2" ]
         ~transitions:
           [ Petri.Net.mk_transition ~peer:"q" ~alarm:"y" ~pre:[ "s0" ] ~post:[ "s1" ] "ty";
             Petri.Net.mk_transition ~peer:"p" ~alarm:"x" ~pre:[ "s1" ] ~post:[ "s2" ] "tx" ]
         ~marking:[ "s0" ])
  in
  let t = Online.start net in
  (* the x alarm arrives first although its event causally needs ty *)
  Online.observe t ("x", "p");
  Alcotest.(check int) "x alone is not yet explainable" 0 (List.length (Online.diagnosis t));
  Online.observe t ("y", "q");
  let d = Online.diagnosis t in
  Alcotest.(check int) "with y it is" 1 (List.length d);
  Alcotest.(check (list string)) "both events" [ "tx"; "ty" ]
    (Canon.config_transitions (List.hd d))

let test_online_materialization_monotone () =
  let net = running_net () in
  let t = Online.start net in
  let sizes = ref [] in
  List.iter
    (fun alarm ->
      Online.observe t alarm;
      sizes := Term.Set.cardinal (Online.events_materialized t) :: !sizes)
    [ ("b", "p1"); ("a", "p2"); ("c", "p1") ];
  let sizes = List.rev !sizes in
  Alcotest.(check bool) "monotone growth" true
    (List.sort compare sizes = sizes);
  (* final materialization == batch materialization *)
  let batch = Product.diagnose net (Petri.Examples.running_alarms ()) in
  Alcotest.(check bool) "events == batch" true
    (Term.Set.equal batch.Product.events_materialized (Online.events_materialized t))

let test_online_budget_exception () =
  let net = running_net () in
  let t = Online.start ~max_states:1 net in
  try
    Online.observe t ("b", "p1");
    Alcotest.fail "state budget not enforced"
  with Online.State_budget_exceeded { states; alarms_consumed } ->
    Alcotest.(check int) "states at the trip" 1 states;
    Alcotest.(check int) "alarms consumed at the trip" 1 alarms_consumed

(* one peer, one token: alarm [a] has three candidate firings, two of which
   strand the token (no [b] possible) — after observing [b] those branches
   are provably conflict-dead and the GC must reclaim them *)
let gc_net () =
  Petri.Net.binarize
    (Petri.Net.make
       ~places:
         [ Petri.Net.mk_place ~peer:"p" "s0";
           Petri.Net.mk_place ~peer:"p" "sA";
           Petri.Net.mk_place ~peer:"p" "sA'";
           Petri.Net.mk_place ~peer:"p" "sB";
           Petri.Net.mk_place ~peer:"p" "sC" ]
       ~transitions:
         [ Petri.Net.mk_transition ~peer:"p" ~alarm:"a" ~pre:[ "s0" ] ~post:[ "sA" ] "ta1";
           Petri.Net.mk_transition ~peer:"p" ~alarm:"a" ~pre:[ "s0" ] ~post:[ "sA'" ] "ta2";
           Petri.Net.mk_transition ~peer:"p" ~alarm:"a" ~pre:[ "s0" ] ~post:[ "sB" ] "ta3";
           Petri.Net.mk_transition ~peer:"p" ~alarm:"b" ~pre:[ "sB" ] ~post:[ "sC" ] "tb" ]
       ~marking:[ "s0" ])

let test_online_gc_shrinks () =
  let t = Online.start (gc_net ()) in
  Online.observe t ("a", "p");
  (* the three branches are the whole frontier; the saturated root is gone *)
  Alcotest.(check int) "three branches live" 3 (Online.live_states t);
  Alcotest.(check int) "root reclaimed" 1 (Online.gc_reclaimed t);
  let g = Obs.Metrics.gauge "online.live_states" in
  let g0 = Obs.Metrics.gauge_value g in
  Online.observe t ("b", "p");
  (* +1 node for [tb]'s child; the two stranded branches are conflict-dead
     and [ta3]'s node is saturated — all three reclaimed *)
  Alcotest.(check int) "only the surviving frontier lives" 1 (Online.live_states t);
  Alcotest.(check int) "four states reclaimed in all" 4 (Online.gc_reclaimed t);
  Alcotest.(check int) "online.live_states gauge shrank" (g0 - 2) (Obs.Metrics.gauge_value g);
  let d = Online.diagnosis t in
  Alcotest.(check int) "one explanation" 1 (List.length d);
  Alcotest.(check (list string)) "the surviving branch" [ "ta3"; "tb" ]
    (Canon.config_transitions (List.hd d));
  Online.release t

let test_online_gc_equivalent () =
  let net = running_net () in
  let on = Online.start ~gc:true net in
  let off = Online.start ~gc:false net in
  List.iter
    (fun alarm ->
      Online.observe on alarm;
      Online.observe off alarm;
      Alcotest.(check string) "diagnosis byte-identical at every prefix"
        (Canon.diagnosis_to_string (Online.diagnosis off))
        (Canon.diagnosis_to_string (Online.diagnosis on));
      Alcotest.(check bool) "materialized events identical" true
        (Term.Set.equal (Online.events_materialized off) (Online.events_materialized on)))
    [ ("b", "p1"); ("a", "p2"); ("c", "p1") ];
  Alcotest.(check bool) "GC'd live set never larger" true
    (Online.live_states on <= Online.live_states off);
  Alcotest.(check int) "no reclamation with GC off" 0 (Online.gc_reclaimed off);
  Online.release on;
  Online.release off

let test_online_release () =
  let t = Online.start (running_net ()) in
  Online.observe t ("b", "p1");
  let g = Obs.Metrics.gauge "online.live_states" in
  let before = Obs.Metrics.gauge_value g in
  let live = Online.live_states t in
  Online.release t;
  Online.release t;
  (* idempotent *)
  Alcotest.(check int) "gauge contribution returned once" (before - live)
    (Obs.Metrics.gauge_value g);
  match Online.observe t ("a", "p2") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "observe after release accepted"

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                               *)
(* ------------------------------------------------------------------ *)

(* a mid-stream snapshot resumes byte-identically: same diagnosis at the
   cut point, same counters, and the same diagnosis again after feeding
   the donor and the restored engine the same suffix *)
let test_checkpoint_roundtrip () =
  let net = running_net () in
  let t = Online.start net in
  Online.observe t ("b", "p1");
  Online.observe t ("a", "p2");
  let snap = Online.checkpoint t in
  let r = Online.restore net snap in
  check_diag "restored diagnosis identical" (Online.diagnosis t) (Online.diagnosis r);
  Alcotest.(check int) "alarm prefix carried" (Online.alarms_consumed t)
    (Online.alarms_consumed r);
  Alcotest.(check int) "exploration counter carried" (Online.states_explored t)
    (Online.states_explored r);
  Alcotest.(check bool) "restored materialization within the donor's" true
    (Term.Set.subset (Online.events_materialized r) (Online.events_materialized t));
  Online.observe t ("c", "p1");
  Online.observe r ("c", "p1");
  Alcotest.(check string) "suffix replay byte-identical"
    (Canon.diagnosis_to_string (Online.diagnosis t))
    (Canon.diagnosis_to_string (Online.diagnosis r));
  Online.release t;
  Online.release r

(* the snapshot carries the live frontier only: even when the donor ran
   with GC off and its table still holds every inert branch, the restored
   engine is the compacted one — fewer nodes, fewer materialized terms,
   the same diagnosis *)
let test_checkpoint_compacts () =
  let t = Online.start ~gc:false (gc_net ()) in
  Online.observe t ("a", "p");
  Online.observe t ("b", "p");
  Alcotest.(check int) "no reclamation with GC off" 0 (Online.gc_reclaimed t);
  let r = Online.restore (gc_net ()) (Online.checkpoint t) in
  Alcotest.(check int) "only the surviving branch restored" 1 (Online.live_states r);
  let em_t = Online.events_materialized t and em_r = Online.events_materialized r in
  Alcotest.(check bool) "strictly fewer terms after compaction" true
    (Term.Set.subset em_r em_t && Term.Set.cardinal em_r < Term.Set.cardinal em_t);
  check_diag "diagnosis survives compaction" (Online.diagnosis t) (Online.diagnosis r);
  Online.release t;
  Online.release r

let test_restore_wrong_net () =
  let t = Online.start (running_net ()) in
  Online.observe t ("b", "p1");
  let snap = Online.checkpoint t in
  (match Online.restore (gc_net ()) snap with
  | exception Dqsq.Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "snapshot accepted against a different net");
  Online.release t

(* a [?max_states] override at restore time counts from the snapshot's
   carried exploration total, not from zero — budgets span restarts *)
let test_restore_budget_carry () =
  let net = running_net () in
  let t = Online.start net in
  Online.observe t ("b", "p1");
  let snap = Online.checkpoint t in
  let spent = Online.states_explored t in
  Online.release t;
  let r = Online.restore ~max_states:spent net snap in
  (try
     Online.observe r ("a", "p2");
     Alcotest.fail "carried state budget not enforced"
   with Online.State_budget_exceeded { states; alarms_consumed } ->
     Alcotest.(check int) "states at the trip" spent states;
     Alcotest.(check int) "alarms consumed counts the snapshot prefix" 2 alarms_consumed);
  Online.release r

(* ------------------------------------------------------------------ *)
(* Configurations as tip sets                                          *)
(* ------------------------------------------------------------------ *)

let cycles_net () = Petri.Net.binarize (Petri.Examples.sync_cycles ())
let cycles_alarms n = List.init n Petri.Examples.sync_cycles_alarm

(* the tips of the explanations of the whole prefix, as transition names *)
let complete_tips t =
  let alarms = Online.alarms_consumed t in
  List.concat_map
    (fun (n : Snapshot_layout.node) ->
      if Array.fold_left ( + ) 0 n.positions = alarms then
        List.map (fun c -> Canon.config_transitions (Term.Set.of_list c)) n.tips
      else [])
    (Snapshot_layout.read (Online.checkpoint t)).nodes

(* One round of the synchronized cycles is a b d e f c. After f, qf (a
   sync event whose parents are qe and the initial sp) is a tip beside
   pb; c fires pc, whose two parents are pb and qf, so both leave the
   tips and pc is the only one left. *)
let test_tips_sync_event () =
  let net = cycles_net () in
  let t = Online.start net in
  List.iter (Online.observe t) (cycles_alarms 5);
  Alcotest.(check (list (list string))) "tips after f" [ [ "pb"; "qf" ] ] (complete_tips t);
  Online.observe t (Petri.Examples.sync_cycles_alarm 5);
  Alcotest.(check (list (list string))) "pc replaces both parents" [ [ "pc" ] ]
    (complete_tips t);
  check_diag "diagnosis == Product"
    (Product.diagnose net (alarms (cycles_alarms 6))).Product.diagnosis (Online.diagnosis t);
  Online.release t

(* a restored engine holds the same frontier, so checkpointing it again
   gives the donor's bytes *)
let test_checkpoint_restore_checkpoint () =
  let net = cycles_net () in
  let t = Online.start net in
  let prefixes = List.init 12 succ @ [ 1_000; 5_000 ] in
  List.iteri
    (fun k alarm ->
      Online.observe t alarm;
      if List.mem (k + 1) prefixes then begin
        let snap = Online.checkpoint t in
        let r = Online.restore net snap in
        Alcotest.(check string)
          (Printf.sprintf "checkpoint of the restored engine at prefix %d" (k + 1))
          snap (Online.checkpoint r);
        Online.release r
      end)
    (cycles_alarms 5_000);
  Online.release t

(* restore reads tips and edges and walks no closure: what it
   materializes is the live frontier's events, not the prefix's *)
let test_restore_materializes_frontier () =
  let net = cycles_net () in
  let t = Online.start net in
  List.iter (Online.observe t) (cycles_alarms 5_000);
  let snap = Online.checkpoint t in
  let r = Online.restore net snap in
  let tips =
    List.fold_left
      (fun acc (n : Snapshot_layout.node) ->
        List.fold_left (fun acc c -> acc + List.length c) acc n.tips)
      0 (Snapshot_layout.read snap).nodes
  in
  let restored = Term.Set.cardinal (Online.events_materialized r) in
  Alcotest.(check bool)
    (Printf.sprintf "%d restored events <= %d edge events + %d tips" restored
       (Online.live_events r) tips)
    true
    (restored <= Online.live_events r + tips);
  Alcotest.(check bool) "far below the prefix" true (restored < 100);
  (* not [check_diag]: rendering a 5k-deep diagnosis for the message is
     quadratic *)
  Alcotest.(check bool) "same diagnosis" true
    (Canon.equal_diagnosis (Online.diagnosis t) (Online.diagnosis r));
  Online.release t;
  Online.release r

(* a length the frame does not carry is a corrupt frame, whatever its
   size: no exception but [Wire.Corrupt], and no allocation sized by the
   forged length *)
let test_restore_forged_lengths () =
  let net = cycles_net () in
  (match
     Online.restore net
       (Dqsq.Wire.encode_snapshot (Dqsq.Wire.encoder ()) (fun buf ->
            Dqsq.Wire.put_uvarint buf 0;
            Dqsq.Wire.put_uvarint buf (max_int - 2)))
   with
  | exception Dqsq.Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "a digest of max_int - 2 bytes accepted");
  List.iter
    (fun len ->
      let frame = Snapshot_layout.forged_word net ~len in
      let before = Gc.allocated_bytes () in
      (match Online.restore net frame with
      | exception Dqsq.Wire.Corrupt _ -> ()
      | _ -> Alcotest.fail "forged word length accepted");
      Alcotest.(check bool)
        (Printf.sprintf "word length %d: allocation bounded by the frame" len)
        true
        (Gc.allocated_bytes () -. before < 1e6))
    [ 1 lsl 60; 1 lsl 22 ]

let prop_online_eq_batch =
  QCheck.Test.make ~count:25
    ~name:"online == batch after every prefix (random scenarios)"
    (QCheck.make
       ~print:(fun (s, k) -> Printf.sprintf "seed=%d steps=%d" s k)
       QCheck.Gen.(tup2 (0 -- 10000) (1 -- 5)))
    (fun (seed, steps) ->
      let spec =
        {
          Petri.Generator.peers = 2;
          components_per_peer = 1;
          places_per_component = 3;
          local_transitions = 2;
          sync_transitions = 1;
          alarm_symbols = 2;
        }
      in
      let net = Petri.Net.binarize (Petri.Generator.generate ~rng:(rng seed) spec) in
      let _, a = Petri.Generator.scenario ~rng:(rng (seed + 1)) ~steps net in
      QCheck.assume (Petri.Alarm.length a > 0);
      let t = Online.start net in
      let consumed =
        List.fold_left
          (fun consumed alarm ->
            Online.observe t alarm;
            let consumed = consumed @ [ alarm ] in
            let batch = Product.diagnose net (Petri.Alarm.make consumed) in
            if not (Canon.equal_diagnosis batch.Product.diagnosis (Online.diagnosis t)) then
              QCheck.Test.fail_reportf "diagnosis diverges after prefix %d"
                (List.length consumed);
            if
              not
                (Term.Set.equal batch.Product.events_materialized
                   (Online.events_materialized t))
            then
              QCheck.Test.fail_reportf "materialized events diverge after prefix %d"
                (List.length consumed);
            consumed)
          [] (Petri.Alarm.to_pairs a)
      in
      Online.release t;
      List.length consumed = Petri.Alarm.length a)

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_text () =
  let net = running_net () in
  let d = (Diagnoser.diagnose net (Petri.Examples.running_alarms ())).Diagnoser.diagnosis in
  let s = Report.to_string net d in
  Alcotest.(check bool) "mentions explanation count" true (contains s "3 possible explanation");
  Alcotest.(check bool) "mentions transition i" true (contains s "i ");
  Alcotest.(check bool) "mentions causality" true (contains s "after i");
  Alcotest.(check bool) "mentions initial state" true (contains s "initial state")

let test_report_causal_order () =
  let net = running_net () in
  let d = (Diagnoser.diagnose net (Petri.Examples.running_alarms ())).Diagnoser.diagnosis in
  List.iter
    (fun config ->
      let views = Report.view_of_config net config in
      (* each cause must also be an event of the configuration *)
      List.iter
        (fun v ->
          List.iter
            (fun c -> Alcotest.(check bool) "cause in config" true (Term.Set.mem c config))
            v.Report.causes)
        views)
    d

let test_report_timelines () =
  let net = running_net () in
  let d = (Diagnoser.diagnose net (Petri.Examples.running_alarms ())).Diagnoser.diagnosis in
  (* the {i,ii,iii} explanation: p1 fires i then iii, p2 fires ii *)
  let config =
    List.find (fun c -> Canon.config_transitions c = [ "i"; "ii"; "iii" ]) d
  in
  let tl = Report.timelines net config in
  Alcotest.(check (list (pair string (list string)))) "timelines"
    [ ("p1", [ "i(b)"; "iii(c)" ]); ("p2", [ "ii(a)" ]) ]
    tl

let test_report_dot () =
  let net = running_net () in
  let d = (Diagnoser.diagnose net (Petri.Examples.running_alarms ())).Diagnoser.diagnosis in
  let s = Report.dot_of_config net (List.hd d) in
  Alcotest.(check bool) "has highlighting" true (contains s "fillcolor")

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ ( "online",
      [ Alcotest.test_case "running example" `Quick test_online_running_example;
        Alcotest.test_case "prefixes match batch" `Quick test_online_prefixes_match_batch;
        Alcotest.test_case "cross-peer dependency" `Quick test_online_cross_peer_dependency;
        Alcotest.test_case "materialization monotone" `Quick
          test_online_materialization_monotone;
        Alcotest.test_case "state budget exception" `Quick test_online_budget_exception;
        Alcotest.test_case "gc reclaims conflict-dead branches" `Quick
          test_online_gc_shrinks;
        Alcotest.test_case "gc on == gc off" `Quick test_online_gc_equivalent;
        Alcotest.test_case "release" `Quick test_online_release ]
      @ qcheck [ prop_online_eq_batch ] );
    ( "checkpoint",
      [ Alcotest.test_case "mid-stream roundtrip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "compacts to the live frontier" `Quick test_checkpoint_compacts;
        Alcotest.test_case "refuses a different net" `Quick test_restore_wrong_net;
        Alcotest.test_case "carries the state budget" `Quick test_restore_budget_carry;
        Alcotest.test_case "forged lengths are corrupt" `Quick
          test_restore_forged_lengths ] );
    ( "tips",
      [ Alcotest.test_case "sync event drops both parents" `Quick test_tips_sync_event;
        Alcotest.test_case "checkpoint (restore (checkpoint o)) == checkpoint o" `Quick
          test_checkpoint_restore_checkpoint;
        Alcotest.test_case "restore materializes the frontier only" `Quick
          test_restore_materializes_frontier ] );
    ( "report",
      [ Alcotest.test_case "text" `Quick test_report_text;
        Alcotest.test_case "causal order" `Quick test_report_causal_order;
        Alcotest.test_case "timelines" `Quick test_report_timelines;
        Alcotest.test_case "dot" `Quick test_report_dot ] ) ]

let () = Alcotest.run "online-report" suite
