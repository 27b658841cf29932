(* Tests for the lib/obs observability subsystem and its wiring through the
   engines, the network simulator, and the diagnoser. *)

open Datalog

let alarms l = Petri.Alarm.make l
let running_net () = Petri.Net.binarize (Petri.Examples.running_example ())

(* ---------------- metrics arithmetic ---------------- *)

let test_counter_arithmetic () =
  let r = Obs.Metrics.create_registry () in
  let c = Obs.Metrics.counter ~registry:r "t.count" in
  Alcotest.(check int) "starts at 0" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "incr accumulates" 42 (Obs.Metrics.value c);
  (* same name, same instrument: increments through either handle agree *)
  let c' = Obs.Metrics.counter ~registry:r "t.count" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "shared by name" 43 (Obs.Metrics.value c);
  Alcotest.(check int) "counter_value reads it" 43 (Obs.Metrics.counter_value ~registry:r "t.count");
  Alcotest.(check int) "absent name reads 0" 0 (Obs.Metrics.counter_value ~registry:r "t.other");
  (* a name cannot be re-registered under another kind *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.Metrics: t.count already registered as a counter") (fun () ->
      ignore (Obs.Metrics.gauge ~registry:r "t.count"));
  Obs.Metrics.reset ~registry:r ();
  Alcotest.(check int) "reset zeroes, handle stays valid" 0 (Obs.Metrics.value c)

let test_gauge () =
  let r = Obs.Metrics.create_registry () in
  let g = Obs.Metrics.gauge ~registry:r "t.level" in
  Obs.Metrics.set g 7;
  Obs.Metrics.set g 3;
  Alcotest.(check int) "last write wins" 3 (Obs.Metrics.gauge_value g)

let test_histogram_arithmetic () =
  let r = Obs.Metrics.create_registry () in
  let h = Obs.Metrics.histogram ~registry:r "t.sizes" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 3.0; 4.0; 100.0; 0.0 ];
  let s = Obs.Metrics.summary h in
  Alcotest.(check int) "count" 5 s.Obs.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 108.0 s.Obs.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 0.0 s.Obs.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.Obs.Metrics.max;
  (* log-2 buckets: 0 -> le 0; 1 -> le 1; 3, 4 -> le 4; 100 -> le 128 *)
  Alcotest.(check (list (pair (float 1e-9) int)))
    "log-scale buckets"
    [ (0.0, 1); (1.0, 1); (4.0, 2); (128.0, 1) ]
    s.Obs.Metrics.buckets;
  Alcotest.(check int)
    "buckets cover all observations" s.Obs.Metrics.count
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Obs.Metrics.buckets)

(* ---------------- snapshot determinism ---------------- *)

let test_snapshot_determinism () =
  (* two registries populated with the same instruments in different
     insertion orders render byte-identically *)
  let build order =
    let r = Obs.Metrics.create_registry () in
    List.iter
      (fun name -> Obs.Metrics.incr ~by:(String.length name) (Obs.Metrics.counter ~registry:r name))
      order;
    Obs.Metrics.observe (Obs.Metrics.histogram ~registry:r "z.hist") 2.5;
    r
  in
  let r1 = build [ "b.two"; "a.one"; "c.three" ] in
  let r2 = build [ "c.three"; "b.two"; "a.one" ] in
  Alcotest.(check string) "table stable" (Obs.Snapshot.to_table ~registry:r1 ())
    (Obs.Snapshot.to_table ~registry:r2 ());
  Alcotest.(check string) "json stable" (Obs.Snapshot.to_json ~registry:r1 ())
    (Obs.Snapshot.to_json ~registry:r2 ());
  (* sorted by name *)
  let lines = String.split_on_char '\n' (Obs.Snapshot.to_table ~registry:r1 ()) in
  let names = List.filter_map (fun l -> match String.split_on_char ' ' l with
    | name :: _ when name <> "" -> Some name
    | _ -> None) lines in
  Alcotest.(check (list string)) "name order"
    [ "a.one"; "b.two"; "c.three"; "z.hist" ] names

(* ---------------- tracer ring buffer ---------------- *)

let test_trace_ring () =
  Obs.Trace.set_recording true;
  Obs.Trace.set_capacity 4;
  for i = 1 to 6 do
    Obs.Trace.with_span (Printf.sprintf "span%d" i) (fun () -> ())
  done;
  let names = List.map (fun sp -> sp.Obs.Trace.name) (Obs.Trace.recent ()) in
  Alcotest.(check (list string)) "bounded, oldest dropped"
    [ "span3"; "span4"; "span5"; "span6" ] names;
  (* nesting depth is recorded *)
  Obs.Trace.clear ();
  Obs.Trace.with_span "outer" (fun () -> Obs.Trace.with_span "inner" (fun () -> ()));
  let spans = Obs.Trace.recent () in
  Alcotest.(check (list (pair string int)))
    "inner completes first, one level deeper"
    [ ("inner", 1); ("outer", 0) ]
    (List.map (fun sp -> (sp.Obs.Trace.name, sp.Obs.Trace.depth)) spans);
  Obs.Trace.set_recording false;
  Obs.Trace.set_capacity 256

(* ---------------- wiring: diagnoser run registers activity ------------- *)

let seed_alarms () = alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ]

let test_diagnoser_registers () =
  Obs.Metrics.reset ();
  let net = running_net () in
  let r = Diagnosis.Diagnoser.diagnose net (seed_alarms ()) in
  Alcotest.(check bool) "diagnosis nonempty" true (r.Diagnosis.Diagnoser.diagnosis <> []);
  let v name = Obs.Metrics.counter_value name in
  Alcotest.(check bool) "facts derived" true (v "qsq.facts_derived" > 0);
  Alcotest.(check bool) "rules fired" true (v "qsq.rules_fired" > 0);
  Alcotest.(check bool) "probes counted" true (v "fact_store.probes" > 0);
  Alcotest.(check bool) "nodes materialized" true (v "diagnoser.nodes_materialized" > 0);
  Alcotest.(check int) "nodes = events + conds"
    (v "diagnoser.events_materialized" + v "diagnoser.conds_materialized")
    (v "diagnoser.nodes_materialized");
  (* the registry numbers agree with the per-run result *)
  Alcotest.(check int) "events agree"
    (Term.Set.cardinal r.Diagnosis.Diagnoser.events_materialized)
    (v "diagnoser.events_materialized")

let test_distributed_registers () =
  Obs.Metrics.reset ();
  let net = running_net () in
  let engine =
    Diagnosis.Diagnoser.Distributed { seed = 5; policy = Network.Sim.Random_interleaving }
  in
  let r = Diagnosis.Diagnoser.diagnose ~engine net (seed_alarms ()) in
  let v name = Obs.Metrics.counter_value name in
  Alcotest.(check bool) "messages delivered" true (v "sim.delivered" > 0);
  Alcotest.(check bool) "delegations" true (v "qsq.delegations" > 0);
  (match r.Diagnosis.Diagnoser.comm with
  | Some c ->
    Alcotest.(check int) "deliveries agree with the sim mirror"
      c.Diagnosis.Diagnoser.deliveries (v "sim.delivered")
  | None -> Alcotest.fail "distributed run must report comm stats");
  (* per-peer Theorem 4 split sums to the union-free total *)
  let split =
    List.fold_left
      (fun acc p -> acc + v ("diagnoser.nodes." ^ p))
      0 [ "p1"; "p2"; "supervisor" ]
  in
  Alcotest.(check bool) "per-peer split covers the union" true
    (split >= v "diagnoser.nodes_materialized");
  (* the snapshot JSON carries the acceptance keys *)
  let json = Obs.Snapshot.to_json () in
  List.iter
    (fun key ->
      let quoted = "\"" ^ key ^ "\"" in
      let contains =
        let n = String.length json and m = String.length quoted in
        let rec go i = i + m <= n && (String.sub json i m = quoted || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (key ^ " in snapshot") true contains)
    [ "fact_store.probes"; "qsq.facts_derived"; "sim.delivered";
      "diagnoser.nodes_materialized" ]

(* ---------------- wiring: wire bytes by message kind ---------------- *)

let kinds = [ "wire.bytes.delegate"; "wire.bytes.fact"; "wire.bytes.subscribe" ]

(* Each message kind bills its own bytes, and framing is the rest of
   [wire.bytes_sent]: one frame of a fact, a subscription and a
   delegation adds the three kinds plus exactly its framing (length
   prefix, version, kind, envelope tag and count); a dQSQ run adds at
   least three framing bytes per frame. *)
let test_wire_bytes_by_kind () =
  let v = Obs.Metrics.counter_value in
  let snap () = List.map v ("wire.bytes_sent" :: "wire.frames" :: kinds) in
  let moved before = List.map2 ( - ) (snap ()) before in
  let before = snap () in
  let datom = Dqsq.Datom.make ~rel:"r" ~peer:"p" [ Term.var "X" ] in
  let m =
    Dqsq.Message.Batch
      [ Dqsq.Message.Fact (Atom.make "r@p" [ Term.const "a" ]);
        Dqsq.Message.Subscribe (Symbol.intern "r@p");
        Dqsq.Message.Delegate
          { Dqsq.Message.d_origin_rel = "q@p"; d_origin_ad = "f"; d_rule_index = 0; d_pos = 0;
            d_lit_index = 0; d_prev_args = []; d_prev_owner = "p"; d_remaining = [];
            d_pending = []; d_head = datom } ]
  in
  let frame = Dqsq.Wire.encode_message (Dqsq.Wire.encoder ()) m in
  (match moved before with
  | [ sent; frames; delegate; fact; subscribe ] ->
    Alcotest.(check int) "sent is the frame" (String.length frame) sent;
    Alcotest.(check int) "one frame" 1 frames;
    Alcotest.(check bool) "each kind billed" true (delegate > 0 && fact > 0 && subscribe > 0);
    Alcotest.(check int) "kinds plus framing" sent (delegate + fact + subscribe + 5)
  | _ -> assert false);
  let before = snap () in
  let engine =
    Diagnosis.Diagnoser.Distributed { seed = 5; policy = Network.Sim.Random_interleaving }
  in
  ignore (Diagnosis.Diagnoser.diagnose ~engine (running_net ()) (seed_alarms ()));
  match moved before with
  | [ sent; frames; delegate; fact; subscribe ] ->
    Alcotest.(check bool) "a delegation, a fact and a subscription crossed" true
      (delegate > 0 && fact > 0 && subscribe > 0);
    Alcotest.(check bool)
      (Printf.sprintf "framing %d >= 3 x %d frames" (sent - delegate - fact - subscribe) frames)
      true
      (sent - delegate - fact - subscribe >= 3 * frames)
  | _ -> assert false

(* ---------------- wiring: Sim.stats is the registry view ------------- *)

(* string messages travel as themselves: the frame is the string *)
let text_codec ~src:_ ~dst:_ = (Fun.id, Fun.id)

(* The instance's books and the process-wide mirror move together: over
   one run, each sim.* counter of the default registry moves by exactly
   the instance's total. *)
let test_sim_stats_registry_view () =
  let names = [ "sim.sent"; "sim.delivered"; "sim.dropped"; "sim.bytes" ] in
  let before = List.map Obs.Metrics.counter_value names in
  let sim = Network.Sim.create ~seed:9 ~codec:text_codec () in
  Network.Sim.add_peer sim "a" (fun _ ~src:_ _ -> ());
  Network.Sim.add_peer sim "b" (fun _ ~src:_ _ -> ());
  let frames = List.init 10 (fun i -> Printf.sprintf "m%d" (i + 1)) in
  List.iter (Network.Sim.send sim ~src:"a" ~dst:"b") frames;
  ignore (Network.Sim.run sim);
  let stats = Network.Sim.stats sim in
  List.iter2
    (fun (name, b) v ->
      Alcotest.(check int) name v (Obs.Metrics.counter_value name - b))
    (List.combine names before)
    [ stats.Network.Sim.sent; stats.delivered; stats.dropped; stats.bytes ];
  Alcotest.(check int) "10 delivered" 10 stats.Network.Sim.delivered;
  Alcotest.(check int) "bytes are the frame lengths"
    (List.fold_left (fun n f -> n + String.length f) 0 frames)
    stats.Network.Sim.bytes

(* many channels: registration stays linear (a smoke test for the O(N)
   channel registry — quadratic behavior here would time the suite out) *)
let test_many_channels () =
  let sim = Network.Sim.create ~seed:1 ~codec:(fun ~src:_ ~dst:_ -> (Fun.const "", ignore)) () in
  let n = 300 in
  for i = 0 to n - 1 do
    Network.Sim.add_peer sim (Printf.sprintf "p%d" i) (fun _ ~src:_ _ -> ())
  done;
  for i = 0 to n - 1 do
    for j = 0 to 9 do
      Network.Sim.send sim
        ~src:(Printf.sprintf "p%d" i)
        ~dst:(Printf.sprintf "p%d" ((i + j + 1) mod n))
        ()
    done
  done;
  ignore (Network.Sim.run sim);
  Alcotest.(check int) "all delivered" (n * 10) (Network.Sim.stats sim).Network.Sim.delivered

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram arithmetic" `Quick test_histogram_arithmetic ] );
      ( "snapshot",
        [ Alcotest.test_case "deterministic and sorted" `Quick test_snapshot_determinism ] );
      ( "trace", [ Alcotest.test_case "bounded ring" `Quick test_trace_ring ] );
      ( "wiring",
        [ Alcotest.test_case "diagnoser registers activity" `Quick test_diagnoser_registers;
          Alcotest.test_case "distributed run registers network activity" `Quick
            test_distributed_registers;
          Alcotest.test_case "wire bytes by message kind" `Quick test_wire_bytes_by_kind;
          Alcotest.test_case "Sim.stats == registry view" `Quick test_sim_stats_registry_view;
          Alcotest.test_case "many channels stay linear" `Quick test_many_channels ] ) ]
