(* Tests for the lib/check differential fuzzing subsystem: generator
   validation, case determinism, the bounded fuzz smoke over every engine
   pair, and — the harness testing the harness — an intentionally broken
   engine that must be caught and shrunk to a minimal counterexample. *)

open Check
open Dqsq
open Diagnosis

(* --------------------- generator validation ----------------------- *)

let invalid_spec () =
  (* places_per_component < 2 used to loop forever in distinct_pair *)
  let bad =
    { Petri.Generator.default_spec with Petri.Generator.places_per_component = 1 }
  in
  (match Petri.Generator.generate ~rng:(Random.State.make [| 1 |]) bad with
  | exception Invalid_argument _ -> ()
  | (_ : Petri.Net.t) -> Alcotest.fail "places_per_component = 1 should be rejected");
  List.iter
    (fun spec ->
      match Petri.Generator.validate spec with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "invalid spec accepted")
    [
      { Petri.Generator.default_spec with Petri.Generator.peers = 0 };
      { Petri.Generator.default_spec with Petri.Generator.components_per_peer = 0 };
      { Petri.Generator.default_spec with Petri.Generator.local_transitions = -1 };
      { Petri.Generator.default_spec with Petri.Generator.sync_transitions = -1 };
      { Petri.Generator.default_spec with Petri.Generator.alarm_symbols = 0 };
    ]

let shrink_spec_hook () =
  (* every shrunk spec is valid and different; the minimal spec has none *)
  let shrunk = Petri.Generator.shrink_spec Petri.Generator.default_spec in
  Alcotest.(check bool) "some candidates" true (shrunk <> []);
  List.iter
    (fun s ->
      Petri.Generator.validate s;
      if s = Petri.Generator.default_spec then Alcotest.fail "shrink returned the input")
    shrunk;
  let minimal =
    {
      Petri.Generator.peers = 1;
      components_per_peer = 1;
      places_per_component = 2;
      local_transitions = 0;
      sync_transitions = 0;
      alarm_symbols = 1;
    }
  in
  Alcotest.(check int) "minimal spec is a fixpoint" 0
    (List.length (Petri.Generator.shrink_spec minimal))

let spec_string_roundtrip () =
  let spec = Petri.Generator.default_spec in
  (match Gen.spec_of_string (Gen.spec_to_string spec) with
  | Ok s -> Alcotest.(check bool) "roundtrip" true (s = spec)
  | Error m -> Alcotest.fail m);
  (match Gen.spec_of_string "peers=3,sync=0" with
  | Ok s ->
    Alcotest.(check int) "peers overridden" 3 s.Petri.Generator.peers;
    Alcotest.(check int) "sync overridden" 0 s.Petri.Generator.sync_transitions;
    Alcotest.(check int) "places defaulted" 3 s.Petri.Generator.places_per_component
  | Error m -> Alcotest.fail m);
  (match Gen.spec_of_string "places=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid spec string accepted");
  match Gen.spec_of_string "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted"

(* ------------------------ case determinism ------------------------- *)

let case_deterministic () =
  List.iter
    (fun seed ->
      let c1 = Gen.case ~seed () and c2 = Gen.case ~seed () in
      Alcotest.(check string) "same description" (Gen.describe c1) (Gen.describe c2);
      Alcotest.(check bool) "same net" true
        (Petri.Parse.print { Petri.Parse.net = c1.Gen.net; alarms = Some c1.Gen.alarms }
        = Petri.Parse.print { Petri.Parse.net = c2.Gen.net; alarms = Some c2.Gen.alarms });
      Alcotest.(check bool) "same firing" true (c1.Gen.firing = c2.Gen.firing))
    [ 0; 1; 17; 4711 ]

(* ------------- seed determinism, including the snapshot ------------ *)

(* The sim.mli contract ("same seed and policy: same run") lifted to a full
   dQSQ diagnosis: byte-identical diagnosis, delivery trace, and network
   totals across two fresh runs — per-channel message and byte books
   included, so a frame that changes length on one channel fails here even
   when the totals agree. *)
let dqsq_fresh_run () =
  let case = Gen.case ~seed:11 () in
  let net = Petri.Net.binarize case.Gen.net in
  let p = Diagnoser.prepare net case.Gen.alarms in
  let t =
    Qsq_engine.create ~seed:3 ~policy:Network.Sim.Random_interleaving ~loss:0.2
      p.Diagnoser.program ~edb:p.Diagnoser.edb ~query:p.Diagnoser.query
  in
  Qsq_engine.set_tracing t true;
  let out = Qsq_engine.run t ~query:p.Diagnoser.query in
  let diagnosis =
    Canon.diagnosis_to_string (Supervisor.diagnosis_of_answers out.Qsq_engine.answers)
  in
  (diagnosis, Qsq_engine.delivery_trace t, Qsq_engine.net_stats t)

let seed_determinism_full () =
  let d1, trace1, stats1 = dqsq_fresh_run () in
  let d2, trace2, stats2 = dqsq_fresh_run () in
  Alcotest.(check string) "byte-identical diagnosis" d1 d2;
  Alcotest.(check bool) "non-trivial trace" true (List.length trace1 > 0);
  Alcotest.(check bool) "identical delivery trace" true (trace1 = trace2);
  Alcotest.(check bool) "some messages dropped" true (stats1.Network.Sim.dropped > 0);
  Alcotest.(check bool) "several channels" true (List.length stats1.Network.Sim.channels > 1);
  Alcotest.(check bool) "identical network stats, per channel too" true (stats1 = stats2)

(* --------------- the two readings of condition (iii) --------------- *)

(* Reference.diagnose and Reference.diagnose_literal agree on every
   single-component-per-peer net: each peer's events are causally totally
   ordered, so the per-peer reading leaves no order choice open and the
   documented divergence (which needs cross-peer cycles through concurrent
   same-peer components) cannot arise. *)
let reference_literal_agree () =
  let property = Option.get (Property.find "reference-vs-literal") in
  List.iter
    (fun seed ->
      let pins =
        {
          Gen.no_pins with
          Gen.pin_spec =
            Some
              {
                Petri.Generator.default_spec with
                Petri.Generator.components_per_peer = 1;
                peers = 2;
                sync_transitions = 2;
              };
        }
      in
      let case = Gen.case ~pins ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "applies (seed %d)" seed)
        true
        (property.Property.applies (Property.instance_of_case case));
      match property.Property.check (Property.instance_of_case case) with
      | Property.Pass -> ()
      | Property.Fail m -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed m))
    (List.init 12 Fun.id)

(* The precondition is read off the net alone — [diag verify] has no
   generated case — and on generated nets it is exactly the generator's
   one-component-per-peer shape: the fuzzer skips the cases with several
   components per peer, and only those. *)
let one_token_is_one_component () =
  let property = Option.get (Property.find "reference-vs-literal") in
  for seed = 0 to 1199 do
    let case = Gen.case ~seed () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      (case.Gen.spec.Petri.Generator.components_per_peer = 1)
      (property.Property.applies (Property.instance_of_case case))
  done

(* ------------------------- the fuzz smoke -------------------------- *)

(* A bounded run over every property and engine pair; any engine or
   generator regression fails tier-1 here. The larger 50-case smoke runs
   through the CLI (see the dune rule); this one keeps the library-level
   entry point honest. *)
let fuzz_smoke () =
  let config = { Runner.default_config with Runner.runs = 10; seed = 2026 } in
  let report = Runner.run config in
  Alcotest.(check int) "cases" 10 report.Runner.cases;
  Alcotest.(check bool) "checked something" true (report.Runner.checks > 0);
  match report.Runner.failures with
  | [] -> ()
  | f :: _ -> Alcotest.fail (Runner.print_failure config f)

(* ------------------ an injected bug is caught ---------------------- *)

(* The acceptance check for the whole subsystem: a deliberately broken
   "engine" (it drops the last explanation of the reference diagnosis)
   must be caught on the first ambient case and shrunk to the minimal
   instance — no alarms, no transitions — while still failing, with a
   replay recipe carrying the seed. *)
let broken_engine : Property.t =
  {
    Property.name = "injected-broken-engine";
    theorem = "manual check (ISSUE 2 acceptance)";
    applies = (fun _ -> true);
    check =
      (fun i ->
        let net = Petri.Net.binarize i.Property.net in
        let d_ref = (Reference.diagnose net i.Property.alarms).Reference.diagnosis in
        let buggy = match List.rev d_ref with [] -> [] | _ :: t -> List.rev t in
        if Canon.equal_diagnosis d_ref buggy then Property.Pass
        else Property.Fail "buggy engine lost an explanation");
  }

let injected_bug_caught_and_shrunk () =
  let config =
    {
      Runner.default_config with
      Runner.runs = 1;
      seed = 2026;
      properties = [ broken_engine ];
    }
  in
  let report = Runner.run config in
  match report.Runner.failures with
  | [] -> Alcotest.fail "the injected bug went undetected"
  | f :: _ ->
    let shrunk = f.Runner.shrunk in
    (* fully minimized: the bug fires even on the empty observation of a
       net with no transitions, and the shrinker must get all the way *)
    Alcotest.(check int) "alarms shrunk away" 0
      (Petri.Alarm.length shrunk.Property.alarms);
    Alcotest.(check int) "transitions shrunk away" 0
      (Petri.Net.num_transitions shrunk.Property.net);
    Alcotest.(check bool) "took shrink steps" true (f.Runner.shrink_steps > 0);
    (* the minimized instance still fails *)
    (match broken_engine.Property.check shrunk with
    | Property.Fail _ -> ()
    | Property.Pass -> Alcotest.fail "shrunk instance no longer fails");
    (* and the replay recipe pins the exact case *)
    let recipe = Runner.replay_recipe config f in
    let contains sub s =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "recipe carries the seed" true
      (contains "--seed 2026" recipe);
    Alcotest.(check bool) "recipe names the property" true
      (contains "--property injected-broken-engine" recipe)

let suite =
  [
    ( "generator",
      [
        Alcotest.test_case "invalid specs rejected" `Quick invalid_spec;
        Alcotest.test_case "shrink_spec hook" `Quick shrink_spec_hook;
        Alcotest.test_case "spec string roundtrip" `Quick spec_string_roundtrip;
      ] );
    ( "gen",
      [ Alcotest.test_case "cases are deterministic" `Quick case_deterministic ] );
    ( "determinism",
      [ Alcotest.test_case "seed determinism incl. snapshot" `Quick
          seed_determinism_full ] );
    ( "reference",
      [ Alcotest.test_case "literal reading agrees (1 comp/peer)" `Quick
          reference_literal_agree;
        Alcotest.test_case "one token per peer == one component per peer" `Quick
          one_token_is_one_component ] );
    ( "fuzz",
      [
        Alcotest.test_case "bounded smoke, all properties" `Quick fuzz_smoke;
        Alcotest.test_case "injected bug caught and shrunk" `Quick
          injected_bug_caught_and_shrunk;
      ] );
  ]

let () = Alcotest.run "check" suite
