(* Evaluation-order pin on the shapes of the bench/perf [diagnose] workload:
   every distinct observation of 5 firings of ring3 and of 4 firings of
   ring4, generated, shuffled and seeded as that workload does for seed 1,
   then diagnosed once with centralized QSQ and once with sequential dQSQ.
   One line per scenario prints the rule firings, fact-store probes and
   full scans, derived facts and dQSQ wire bytes the pair cost. These
   depend on the order in which rules fire and facts are derived (which
   follows relation [Symbol] ids through the evaluator's hash tables), not
   only on what is derived, so a change to that order fails the diff
   against [eval_order_golden.txt] even when every diagnosis stays equal.

   Run: dune exec test/eval_order.exe *)

open Diagnosis

let ring peers = Petri.Net.binarize (Petri.Examples.ring ~peers ())

(* Every distinct observation of exactly [k] firings, one per class of
   per-peer alarm words, in DFS order. *)
let observations net k =
  let seen = Hashtbl.create 64 and out = ref [] in
  let rec go marking depth firing =
    if depth = k then begin
      let alarms = Petri.Exec.alarms_of_execution net (List.rev firing) in
      let key = Petri.Alarm.split (Petri.Alarm.make alarms) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := alarms :: !out
      end
    end
    else
      List.iter
        (fun t -> go (Petri.Exec.fire net marking t) (depth + 1) (t :: firing))
        (Petri.Exec.enabled net marking)
  in
  go (Petri.Exec.initial net) 0 [];
  List.rev !out

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let counters =
  [ "eval.rules_fired"; "fact_store.probes"; "fact_store.full_scans"; "eval.facts_derived" ]

let () =
  let rng = Random.State.make [| 1 |] in
  let shapes = [ (3, 5); (4, 4) ] in
  let nets = List.map (fun (peers, _) -> (peers, ring peers)) shapes in
  let scenarios =
    Array.of_list
      (List.concat_map
         (fun (peers, k) ->
           let net = List.assoc peers nets in
           List.map
             (fun obs ->
               let alarms = Petri.Alarm.make (Petri.Exec.async_shuffle ~rng obs) in
               let dseed = Random.State.bits rng in
               (peers, alarms, dseed, (Product.diagnose net alarms).Product.diagnosis))
             (observations net k))
         shapes)
  in
  shuffle rng scenarios;
  Array.iteri
    (fun i (peers, alarms, dseed, expected) ->
      let net = List.assoc peers nets in
      let before = List.map (fun c -> Obs.Metrics.counter_value c) counters in
      let bytes =
        List.fold_left
          (fun acc engine ->
            let res = Diagnoser.run (Diagnoser.prepare net alarms) engine in
            if not (Canon.equal_diagnosis res.Diagnoser.diagnosis expected) then
              failwith (Printf.sprintf "scenario %d: wrong diagnosis" i);
            match res.Diagnoser.comm with Some c -> acc + c.Diagnoser.bytes | None -> acc)
          0
          [ Diagnoser.Centralized_qsq;
            Diagnoser.Distributed { seed = dseed; policy = Network.Sim.Random_interleaving } ]
      in
      let deltas = List.map2 (fun c b -> Obs.Metrics.counter_value c - b) counters before in
      Printf.printf "%2d ring%d %s fired %d probes %d full_scans %d derived %d bytes %d\n" i
        peers (Petri.Alarm.to_string alarms) (List.nth deltas 0) (List.nth deltas 1)
        (List.nth deltas 2) (List.nth deltas 3) bytes)
    scenarios
