(* The repository benchmark: one workload per process, single-threaded.

     perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]

   Untraced, it sets the workload up repeatedly (setup_s is the median),
   then runs ops for S seconds in whole episodes and prints the end-to-end
   metrics, throughput and latency as medians over episodes. Traced, it
   runs S/2 seconds untraced, S/2 seconds with a span
   around every public call, then a decomposition pass, and prints the
   per-layer metrics. Every op is checked against an oracle computed
   before the timed region. Stdout ends with two JSON lines: the full
   record (host stamp included), then the result line
   {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
   any check failed. *)

module M = Measure

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms"); ("op_p90_ms", "ms");
    ("heap_peak_mb", "MB"); ("io_bytes_per_op", "B") ]

(* Self-time shares of the traced timed wall, by the spans that make up
   each layer: the bench-side spans around public calls and the spans the
   library already records inside them. *)
let span_layers =
  [ ("encode.self_frac", [ "diagnoser.prepare" ]);
    ("diagnoser.self_frac", [ "diagnoser.run"; "Diagnoser.prepare"; "Diagnoser.run" ]);
    ("qsq.rewrite_frac", [ "qsq.rewrite" ]);
    ("eval.self_frac", [ "qsq.solve" ]);
    ("engine.self_frac", [ "qsq_engine.run" ]);
    ("sim.self_frac", [ "sim.run" ]);
    ("coordinator.open_frac", [ "Coordinator.open_session"; "Coordinator.open_stream" ]);
    ("coordinator.alarm_frac", [ "Coordinator.add_alarm" ]);
    ("coordinator.start_frac", [ "Coordinator.start" ]);
    ("coordinator.step_round_frac", [ "Coordinator.step_round" ]);
    ("coordinator.report_frac", [ "Coordinator.report" ]);
    ("coordinator.close_frac", [ "Coordinator.close"; "Coordinator.stream_info" ]);
    ("coordinator.checkpoint_frac", [ "Coordinator.checkpoint_stream" ]);
    ("coordinator.restore_frac",
      [ "Coordinator.create"; "Coordinator.add_tenant"; "Coordinator.restore_stream" ]);
    ("snapshot.write_frac", [ "Snapshot.open_store"; "Snapshot.write" ]);
    ("snapshot.scan_frac", [ "Snapshot.scan" ]) ]

let decomposition =
  [ "wire.verify_frac"; "report.readout_frac"; "report.wire_frac"; "report.render_frac";
    "checkpoint.online_frac"; "checkpoint.encode_frac"; "checkpoint.write_frac";
    "restore.read_frac"; "restore.decode_frac"; "restore.online_frac" ]

let trace_capacity = 1_000_000

let host () =
  M.json_obj
    [ ("domains", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", M.json_string Sys.ocaml_version); ("os", M.json_string Sys.os_type);
      ("profile", M.json_string Build_info.profile) ]

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Run ops until [seconds] have passed, in whole episodes, from a
   compacted heap so that set-up garbage does not land in the timing.
   Returns the wall time and the GC work done meanwhile. *)
let timed (inst : Workloads.instance) r ~seconds =
  Gc.compact ();
  let g0 = M.gc () in
  let t0 = M.now () in
  inst.Workloads.run r ~deadline:(t0 +. seconds);
  let wall = M.now () -. t0 in
  (wall, M.gc_since g0)

(* Set the workload up at least 5 times and for at least 3 seconds (a
   stream tenant registers in ~0.1 ms, and a shorter window can fall
   entirely inside one slow second of a shared host); setup_s is the
   median, and the last instance runs. No forced collection between
   repetitions: thousands of them leave the runtime barely collecting
   afterwards, and the heap then grows by ~250 MB per stream episode. *)
let set_up setup =
  let t_end = M.now () +. 3. in
  let rec go n times =
    let t0 = M.now () in
    let inst = setup () in
    let times = (M.now () -. t0) :: times in
    if n < 5 || M.now () < t_end then go (n + 1) times else (M.median times, inst)
  in
  go 1 []

let end_to_end_metrics (w : Workloads.t) ~smoke ~seed ~scratch ~seconds =
  let setup_s, inst = set_up (w.Workloads.make ~smoke ~seed ~scratch) in
  let r = M.recorder w.Workloads.name in
  let wall, _ = timed inst r ~seconds in
  let ops = float_of_int r.M.attempted in
  let values =
    [ setup_s; M.median (M.episode_throughputs r); 1e3 *. M.episode_quantile r 0.5;
      1e3 *. M.episode_quantile r 0.9; M.heap_peak_mb (); M.ratio (float_of_int r.M.io_bytes) ops ]
  in
  ([ r ], wall, List.map2 (fun (n, u) v -> (n, v, u)) end_to_end values)

let per_layer_metrics (w : Workloads.t) ~smoke ~seed ~scratch ~seconds =
  let inst = w.Workloads.make ~smoke ~seed ~scratch () in
  (* untraced half: the overhead baseline and the GC deltas *)
  let r0 = M.recorder w.Workloads.name in
  let wall0, gc = timed inst r0 ~seconds:(seconds /. 2.) in
  (* traced half *)
  let r1 = M.recorder w.Workloads.name in
  Obs.Trace.set_capacity trace_capacity;
  Obs.Trace.set_recording true;
  let before = M.counters () in
  let wall1, _ = timed inst r1 ~seconds:(seconds /. 2.) in
  let after = M.counters () in
  Obs.Trace.set_recording false;
  let spans = Obs.Trace.recent () in
  Obs.Trace.clear ();
  if List.length spans >= trace_capacity then
    prerr_endline "perf: span buffer full; layer shares cover the latest spans only";
  let parts = inst.Workloads.decompose () in
  let by_name, covered = M.self_times spans in
  let self names =
    List.fold_left
      (fun acc n -> acc +. (match Hashtbl.find_opt by_name n with Some (s, _) -> s | None -> 0.))
      0. names
  in
  let mapped = List.concat_map snd span_layers in
  let other =
    Hashtbl.fold (fun n (s, _) acc -> if List.mem n mapped then acc else acc +. s) by_name 0.
  in
  let d = M.delta ~before ~after in
  let get n = Option.value (List.assoc_opt n d) ~default:0. in
  let ops = float_of_int r1.M.attempted and ops0 = float_of_int r0.M.attempted in
  let per_op n = M.ratio (get n) ops in
  let rounds = match Hashtbl.find_opt by_name "Coordinator.step_round" with Some (_, c) -> c | None -> 0 in
  let frac = "frac" and count = "count" in
  let metrics =
    List.map (fun (n, names) -> (n, M.ratio (self names) wall1, frac)) span_layers
    @ [ ("other.self_frac", M.ratio other wall1, frac);
        ("bench.uncovered_frac", M.ratio (wall1 -. covered) wall1, frac);
        ("fact_store.probes_per_op", per_op "fact_store.probes", count);
        ("fact_store.candidates_per_op", per_op "fact_store.candidates", count);
        ("fact_store.full_scans_per_op", per_op "fact_store.full_scans", count);
        ("eval.rules_fired_per_op", per_op "eval.rules_fired", count);
        ("eval.facts_derived_per_op", per_op "eval.facts_derived", count);
        ("eval.useful_frac", M.ratio (get "eval.facts_derived") (get "eval.rules_fired"), frac);
        ("term.interned_per_op", per_op "term.interned", count);
        ("term.hashcons_hit_ratio",
          M.ratio (get "term.hashcons_hits") (get "term.hashcons_hits" +. get "term.interned"), frac);
        ("sim.deliveries_per_op", per_op "sim.delivered", count);
        ("sim.bytes_per_op", per_op "sim.bytes", "B");
        ("sim.batch_size_mean",
          M.ratio
            (get "qsq.delegations" +. get "qsq.subscriptions" +. get "qsq.fact_messages")
            (get "sim.delivered"),
          count);
        ("sim.bytes_max_peer_frac", M.max_peer_frac d, frac);
        ("wire.frames_per_op", per_op "wire.frames", count);
        ("wire.bytes_per_op", per_op "wire.bytes_sent", "B");
        ("coordinator.rounds_per_op", M.ratio (float_of_int rounds) ops, count);
        ("coordinator.pool_reuse_frac", M.extra r1 "coordinator.pool_reuse_frac", frac);
        ("online.states_per_alarm", M.extra r1 "online.states_per_alarm", count);
        ("online.live_states_peak", M.extra r1 "online.live_states_peak", count);
        ("online.gc_reclaimed_frac", M.extra r1 "online.gc_reclaimed_frac", frac);
        ("report.bytes_mean", M.ratio (M.extra r1 "report.bytes") (M.extra r1 "report.count"), "B");
        ("snapshot.bytes_per_alarm", M.extra r1 "snapshot.bytes_per_alarm", "B");
        ("gc.minor_words_per_op", M.ratio gc.M.minor ops0, count);
        ("gc.promoted_words_per_op", M.ratio gc.M.promoted ops0, count);
        ("gc.major_collections_per_kop", 1e3 *. M.ratio (float_of_int gc.M.majors) ops0, count);
        ("trace.overhead_frac", M.ratio (wall1 /. ops) (wall0 /. ops0) -. 1., frac) ]
    @ List.map
        (fun n -> (n, Option.value (List.assoc_opt n parts) ~default:0., frac))
        decomposition
  in
  ([ r0; r1 ], wall0 +. wall1, metrics)

let usage () =
  prerr_endline
    "usage: perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]\n\
     workloads: diagnose, service-batch, stream, stream-durable";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 20. in
  let trace = ref false and smoke = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := List.find_opt (fun w -> w.Workloads.name = v) Workloads.all;
      if Option.is_none !workload then usage ();
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if Option.is_none !seed then usage ();
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s >= 0. -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w, seed = match !workload, !seed with Some w, Some s -> (w, s) | _ -> usage () in
  let scratch = Filename.concat ".perf_scratch" (string_of_int (Unix.getpid ())) in
  let run = if !trace then per_layer_metrics else end_to_end_metrics in
  let recorders, wall, metrics =
    Fun.protect
      ~finally:(fun () ->
        remove_tree scratch;
        try Sys.rmdir ".perf_scratch" with Sys_error _ -> ())
      (fun () -> run w ~smoke:!smoke ~seed ~scratch ~seconds:!seconds)
  in
  let attempted = List.fold_left (fun acc r -> acc + r.M.attempted) 0 recorders in
  let failed = List.fold_left (fun acc r -> acc + r.M.failed) 0 recorders in
  let correct = failed = 0 && attempted > 0 in
  print_endline
    (M.json_obj
       [ ("workload", M.json_string w.Workloads.name); ("seed", string_of_int seed);
         ("seconds", M.json_float !seconds); ("trace", if !trace then "1" else "0");
         ("smoke", string_of_bool !smoke); ("host", host ()); ("ops", string_of_int attempted);
         ("ops_failed", string_of_int failed); ("wall_s", M.json_float wall);
         ("episode_ops_per_s",
           M.json_list
             (List.map (fun r -> M.json_list (List.map M.json_float (M.episode_throughputs r))) recorders));
         ("metrics", M.json_metrics metrics) ]);
  print_endline
    (M.json_obj
       [ ("correct", string_of_bool correct); ("attempted", string_of_int attempted);
         ("failed", string_of_int failed); ("metrics", M.json_metrics metrics) ]);
  if not correct then exit 1
