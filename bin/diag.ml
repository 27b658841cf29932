(* diag — command-line frontend to the diagnosis library.

   Subcommands:
     info      net statistics and safety check
     dot       Graphviz export of a net
     unfold    compute a (bounded) unfolding, print stats or DOT
     encode    print the dDatalog program of a net (+ supervisor rules)
     diagnose  diagnose an alarm sequence with a chosen engine
     verify    run every fuzz property on a net and alarm sequence
     fuzz      differential fuzzing of the engine pairs
     rewrite   show the QSQ rewriting of a Datalog program (Fig. 4)
     generate  emit a random distributed safe net
     serve     run the multi-tenant diagnosis service (line protocol)

   Net files use the textual format of Petri.Parse; see `diag generate`. *)

open Cmdliner
open Diagnosis

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  match Petri.Parse.parse (read_file path) with
  | f -> f
  | exception Petri.Parse.Parse_error m ->
    Printf.eprintf "error: %s: %s\n" path m;
    exit 2

let alarms_arg =
  Arg.(value & opt (some string) None
       & info [ "alarms" ] ~docv:"SEQ" ~doc:"Alarm sequence, e.g. \"(b,p1) (a,p2)\".")

(* The [--alarms] sequence if given, else the file's [alarms] line. *)
let observation (f : Petri.Parse.file) = function
  | Some s -> (
    match Petri.Parse.parse ("alarms " ^ s) with
    | { Petri.Parse.alarms = Some a; _ } -> a
    | _ | (exception Petri.Parse.Parse_error _) ->
      Printf.eprintf "error: cannot parse alarm sequence %S\n" s;
      exit 2)
  | None -> (
    match f.Petri.Parse.alarms with
    | Some a -> a
    | None ->
      Printf.eprintf "error: no alarm sequence (pass --alarms or add an 'alarms' line)\n";
      exit 2)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NET" ~doc:"Net description file.")

(* ---------------- observability flags ---------------- *)

(* [--stats] prints the default-registry snapshot as a table, [--stats=json]
   as JSON; [--trace] streams spans to stderr as they complete. *)

let stats_arg =
  let fmt = Arg.enum [ ("table", `Table); ("json", `Json) ] in
  Arg.(value & opt ~vopt:(Some `Table) (some fmt) None
       & info [ "stats" ] ~docv:"FORMAT"
           ~doc:"After the run, print a snapshot of every registered metric \
                 (counters, gauges, histograms); FORMAT is 'table' (default) or 'json'.")

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ] ~doc:"Stream observability spans to stderr as they complete.")

let enable_trace trace = if trace then Obs.Trace.set_sink Obs.Trace.Stderr

let print_stats = function
  | None -> ()
  | Some `Json -> print_endline (Obs.Snapshot.to_json ())
  | Some `Table -> print_string (Obs.Snapshot.to_table ())

(* ---------------- info ---------------- *)

let info_cmd =
  let run path =
    let f = load path in
    let net = f.Petri.Parse.net in
    Printf.printf "places:      %d\n" (Petri.Net.num_places net);
    Printf.printf "transitions: %d\n" (Petri.Net.num_transitions net);
    Printf.printf "peers:       %s\n" (String.concat ", " (Petri.Net.peers net));
    Printf.printf "marked:      %s\n"
      (String.concat ", " (Petri.Net.String_set.elements (Petri.Net.marking net)));
    (match Petri.Exec.is_safe ~max_states:200_000 net with
    | true -> Printf.printf "safe:        yes\n"
    | false -> Printf.printf "safe:        NO (diagnosis requires safe nets)\n");
    (match f.Petri.Parse.alarms with
    | Some a -> Printf.printf "alarms:      %s\n" (Petri.Alarm.to_string a)
    | None -> ())
  in
  Cmd.v (Cmd.info "info" ~doc:"Show statistics about a net file.")
    Term.(const run $ file_arg)

(* ---------------- dot ---------------- *)

let dot_cmd =
  let run path =
    let f = load path in
    print_string (Petri.Dot.net_to_string f.Petri.Parse.net)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export the net to Graphviz DOT.")
    Term.(const run $ file_arg)

(* ---------------- unfold ---------------- *)

let unfold_cmd =
  let run path depth max_events as_dot =
    let f = load path in
    let net = Petri.Net.binarize f.Petri.Parse.net in
    let bound = { Petri.Unfolding.max_events = Some max_events; max_depth = depth } in
    let u = Petri.Unfolding.unfold ~bound net in
    if as_dot then print_string (Petri.Dot.unfolding_to_string u)
    else begin
      Printf.printf "conditions: %d\n" (Petri.Unfolding.num_conds u);
      Printf.printf "events:     %d\n" (Petri.Unfolding.num_events u);
      Printf.printf "complete:   %b\n" (Petri.Unfolding.is_complete u)
    end
  in
  let depth =
    Arg.(value & opt (some int) None & info [ "depth" ] ~doc:"Bound on canonical-name depth.")
  in
  let max_events =
    Arg.(value & opt int 10_000 & info [ "max-events" ] ~doc:"Bound on event count.")
  in
  let as_dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT.") in
  Cmd.v
    (Cmd.info "unfold" ~doc:"Compute a bounded prefix of the net unfolding.")
    Term.(const run $ file_arg $ depth $ max_events $ as_dot)

(* ---------------- encode ---------------- *)

let encode_cmd =
  let run path with_supervisor =
    let f = load path in
    let net = Petri.Net.binarize f.Petri.Parse.net in
    if with_supervisor then begin
      match f.Petri.Parse.alarms with
      | None ->
        Printf.eprintf "error: --supervisor needs an 'alarms' line in the net file\n";
        exit 2
      | Some a ->
        let p = Diagnoser.prepare net a in
        print_endline (Dqsq.Dprogram.to_string p.Diagnoser.program);
        print_endline "% EDB:";
        List.iter (fun d -> Printf.printf "%s.\n" (Dqsq.Datom.to_string d)) p.Diagnoser.edb
    end
    else print_endline (Dqsq.Dprogram.to_string (Encode.unfolding_program net))
  in
  let with_supervisor =
    Arg.(value & flag & info [ "supervisor" ]
           ~doc:"Include the supervisor rules for the file's alarm sequence.")
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Print the dDatalog encoding of the net unfolding (Section 4.1).")
    Term.(const run $ file_arg $ with_supervisor)

(* ---------------- diagnose ---------------- *)

let engine_conv =
  Arg.enum
    [ ("qsq", `Qsq); ("magic", `Magic); ("dqsq", `Dqsq); ("product", `Product);
      ("reference", `Reference) ]

let diagnose_cmd =
  let run path alarms_opt engine seed jobs verbose stats trace =
    enable_trace trace;
    let f = load path in
    let net = Petri.Net.binarize f.Petri.Parse.net in
    let alarms = observation f alarms_opt in
    Printf.printf "observation: %s\n" (Petri.Alarm.to_string alarms);
    let diagnosis, extra =
      match engine with
      | `Reference ->
        let r = Reference.diagnose net alarms in
        (r.Reference.diagnosis,
         Printf.sprintf "configurations examined: %d" r.Reference.configurations_examined)
      | `Product ->
        let r = Product.diagnose net alarms in
        (r.Product.diagnosis,
         Printf.sprintf "events materialized: %d, conditions: %d, states: %d"
           (Datalog.Term.Set.cardinal r.Product.events_materialized)
           (Datalog.Term.Set.cardinal r.Product.conds_materialized)
           r.Product.states_explored)
      | (`Qsq | `Magic | `Dqsq) as e ->
        let engine =
          match e with
          | `Qsq -> Diagnoser.Centralized_qsq
          | `Magic -> Diagnoser.Centralized_magic
          | `Dqsq ->
            match jobs with
            | Some jobs when jobs >= 1 -> Diagnoser.Distributed_parallel { jobs }
            | Some _ ->
              Printf.eprintf "error: --jobs must be >= 1\n";
              exit 2
            | None -> Diagnoser.Distributed { seed; policy = Network.Sim.Random_interleaving }
        in
        let r = Diagnoser.diagnose ~engine net alarms in
        let comm =
          match r.Diagnoser.comm with
          | Some c ->
            Printf.sprintf "; messages: %d (facts %d, delegations %d, subscriptions %d)"
              c.Diagnoser.deliveries c.Diagnoser.fact_messages c.Diagnoser.delegations
              c.Diagnoser.subscriptions
          | None -> ""
        in
        (r.Diagnoser.diagnosis,
         Printf.sprintf "events materialized: %d, conditions: %d, facts: %d%s"
           (Datalog.Term.Set.cardinal r.Diagnoser.events_materialized)
           (Datalog.Term.Set.cardinal r.Diagnoser.conds_materialized)
           r.Diagnoser.facts_total comm)
    in
    Printf.printf "explanations: %d\n" (List.length diagnosis);
    List.iteri
      (fun i c ->
        Printf.printf "  #%d: {%s}\n" (i + 1) (String.concat ", " (Canon.config_transitions c));
        if verbose then
          List.iter
            (fun t -> Printf.printf "      %s\n" (Datalog.Term.to_string t))
            (Datalog.Term.Set.elements c))
      diagnosis;
    print_endline extra;
    print_stats stats
  in
  let engine =
    Arg.(value & opt engine_conv `Qsq
         & info [ "engine" ] ~doc:"One of qsq, magic, dqsq, product, reference.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Scheduler seed (dqsq).") in
  let jobs =
    Arg.(value
         & opt ~vopt:(Some (Domain.recommended_domain_count ())) (some int) None
         & info [ "jobs" ] ~docv:"N"
             ~doc:"With --engine dqsq: run the peers on $(docv) OCaml domains \
                   under the parallel scheduler ($(b,--jobs) alone: the \
                   machine's domain count). The diagnosis is identical to the \
                   sequential run.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print event terms.") in
  Cmd.v
    (Cmd.info "diagnose" ~doc:"Diagnose an alarm sequence.")
    Term.(const run $ file_arg $ alarms_arg $ engine $ seed $ jobs $ verbose
          $ stats_arg $ trace_arg)

(* ---------------- rewrite ---------------- *)

let rewrite_cmd =
  let run program_file query =
    let program_text =
      match program_file with
      | Some path -> read_file path
      | None ->
        (* the localized Figure 3 program *)
        {| R(X, Y) :- A(X, Y).
           R(X, Y) :- S(X, Z), T(Z, Y).
           S(X, Y) :- R(X, Y), B(Y, Z).
           T(X, Y) :- C(X, Y). |}
    in
    let program = Datalog.Parser.parse_program program_text in
    let query = Datalog.Parser.parse_atom (Option.value ~default:"R(\"1\", Y)" query) in
    let rw = Datalog.Qsq.rewrite program query in
    Printf.printf "%% QSQ rewriting of the query %s (cf. Fig. 4)\n"
      (Datalog.Atom.to_string query);
    Printf.printf "%% seed: %s\n" (Datalog.Atom.to_string rw.Datalog.Qsq.seed);
    print_endline (Datalog.Program.to_string rw.Datalog.Qsq.program)
  in
  let program_file =
    Arg.(value & opt (some file) None
         & info [ "program" ] ~doc:"Datalog program file (default: the Fig. 3 program).")
  in
  let query =
    Arg.(value & opt (some string) None & info [ "query" ] ~doc:"Query atom.")
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Show the QSQ rewriting of a Datalog program (Fig. 4).")
    Term.(const run $ program_file $ query)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let run path alarms_opt seed stats trace =
    enable_trace trace;
    let f = load path in
    let net = f.Petri.Parse.net in
    if not (Petri.Exec.is_safe ~max_states:200_000 net) then begin
      Printf.eprintf "error: the net is not safe; the theorems assume safe nets\n";
      exit 1
    end;
    let alarms = observation f alarms_opt in
    Printf.printf "observation: %s\n\n" (Petri.Alarm.to_string alarms);
    (* the fuzzer's properties on the file's net and alarms, under the
       fuzzer's default schedule for the distributed and lossy ones *)
    let instance =
      { Check.Property.net; alarms; policy = Network.Sim.Random_interleaving;
        loss = Check.Gen.default_loss; jobs = 2; sim_seed = seed }
    in
    let ok = ref true in
    List.iter
      (fun (p : Check.Property.t) ->
        let verdict, why =
          if not (p.applies instance) then ("SKIP", "")
          else
            match p.check instance with
            | Check.Property.Pass -> ("PASS", "")
            | Check.Property.Fail m ->
              ok := false;
              ("FAIL", "\n    " ^ m)
        in
        Printf.printf "%-31s %s  %s%s\n" p.name verdict p.theorem why)
      Check.Property.all;
    print_newline ();
    print_stats stats;
    if !ok then print_endline "all checks passed"
    else begin
      print_endline "SOME CHECKS FAILED";
      exit 1
    end
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Scheduler seed (dQSQ).") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run every fuzz property (the paper's theorems; see `diag fuzz \
             --list-properties`) on a net and alarm sequence.")
    Term.(const run $ file_arg $ alarms_arg $ seed $ stats_arg $ trace_arg)

(* ---------------- fuzz ---------------- *)

(* Differential fuzzing of the engine pairs (lib/check): every property is
   a theorem of the paper; failures are shrunk and printed with a replay
   recipe. Deterministic for a given seed. *)

let fuzz_cmd =
  let run runs seed spec_str steps policy_str loss jobs props list_props max_shrink
      verbose stats trace =
    enable_trace trace;
    if list_props then begin
      List.iter
        (fun p ->
          Printf.printf "%-34s %s\n" p.Check.Property.name p.Check.Property.theorem)
        Check.Property.all;
      exit 0
    end;
    let or_die = function
      | Ok v -> v
      | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    in
    let pin_spec =
      Option.map (fun s -> or_die (Check.Gen.spec_of_string s)) spec_str
    in
    let pin_policy =
      Option.map (fun s -> or_die (Check.Gen.policy_of_string s)) policy_str
    in
    (match loss with
    | Some l when l < 0.0 || l >= 1.0 ->
      Printf.eprintf "error: --loss must be in [0, 1)\n";
      exit 2
    | _ -> ());
    (match jobs with
    | Some j when j < 1 ->
      Printf.eprintf "error: --jobs must be >= 1\n";
      exit 2
    | _ -> ());
    let properties =
      match props with
      | [] -> Check.Property.all
      | names ->
        List.map
          (fun n ->
            match Check.Property.find n with
            | Some p -> p
            | None ->
              Printf.eprintf "error: unknown property %S (try --list-properties)\n" n;
              exit 2)
          names
    in
    let config =
      {
        Check.Runner.runs;
        seed;
        pins =
          { Check.Gen.pin_spec; pin_steps = steps; pin_policy; pin_loss = loss;
            pin_jobs = jobs };
        properties;
        max_shrink_checks = max_shrink;
      }
    in
    let on_case c = if verbose then print_endline (Check.Gen.describe c) in
    let report = Check.Runner.run ~on_case config in
    print_endline (Check.Runner.print_report config report);
    print_stats stats;
    if report.Check.Runner.failures <> [] then exit 1
  in
  let runs =
    Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Number of cases (consecutive seeds).")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Seed of the first case.") in
  let spec =
    Arg.(value & opt (some string) None
         & info [ "spec" ] ~docv:"SPEC"
             ~doc:"Pin the net shape, e.g. \
                   'peers=2,components=2,places=3,local=3,sync=2,alphabet=3' \
                   (omitted keys keep defaults).")
  in
  let steps =
    Arg.(value & opt (some int) None
         & info [ "steps" ] ~doc:"Pin the scenario length (random firings).")
  in
  let policy =
    Arg.(value & opt (some string) None
         & info [ "policy" ] ~doc:"Pin the delivery policy: random, round-robin, fifo.")
  in
  let loss =
    Arg.(value & opt (some float) None
         & info [ "loss" ] ~doc:"Pin the loss rate for the lossy properties (in [0, 1)).")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Pin the domain count for the parallel-eq-sequential property.")
  in
  let props =
    Arg.(value & opt_all string []
         & info [ "property" ] ~docv:"NAME"
             ~doc:"Run only this property (repeatable; default: all).")
  in
  let list_props =
    Arg.(value & flag & info [ "list-properties" ] ~doc:"List properties and exit.")
  in
  let max_shrink =
    Arg.(value & opt int 200
         & info [ "max-shrink" ] ~doc:"Per-failure shrinking budget (property evaluations).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each case before running it.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz every engine pair against the paper's theorems.")
    Term.(const run $ runs $ seed $ spec $ steps $ policy $ loss $ jobs $ props
          $ list_props $ max_shrink $ verbose $ stats_arg $ trace_arg)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let run socket once quantum stream_budget ckpt_dir ckpt_every recover stats trace =
    enable_trace trace;
    (match ckpt_every with
    | Some n when n < 1 ->
      Printf.eprintf "error: --checkpoint-every must be >= 1\n";
      exit 2
    | Some _ when ckpt_dir = None ->
      Printf.eprintf "error: --checkpoint-every needs --checkpoint-dir\n";
      exit 2
    | _ -> ());
    if recover && ckpt_dir = None then begin
      Printf.eprintf "error: --recover needs --checkpoint-dir\n";
      exit 2
    end;
    let coord =
      match stream_budget with
      | Some stream_max_states ->
        Service.Coordinator.create ~quantum ~stream_max_states ()
      | None -> Service.Coordinator.create ~quantum ()
    in
    let checkpoints =
      Option.map
        (fun dir ->
          { Service.Serve.store = Snapshot.open_store dir; every = ckpt_every; recover })
        ckpt_dir
    in
    (match socket with
    | None -> Service.Serve.stdio ?checkpoints coord
    | Some path -> Service.Serve.socket ?checkpoints coord ~path ~once);
    print_stats stats
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket instead of stdin/stdout.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"With --socket: serve exactly one connection, then exit. \
                   On stdin/stdout the server always exits at end of input.")
  in
  let quantum =
    Arg.(value & opt int 16
         & info [ "quantum" ] ~docv:"N"
             ~doc:"Message deliveries per session and round-robin turn.")
  in
  let stream_budget =
    Arg.(value & opt (some int) None
         & info [ "stream-budget" ] ~docv:"N"
             ~doc:"Default cumulative state budget for streaming sessions; a \
                   stream passing it is marked failed (the per-stream BUDGET \
                   argument of the `stream' command overrides this).")
  in
  let ckpt_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"PATH"
             ~doc:"Attach a snapshot store (created if missing): enables the \
                   checkpoint/restore/recover verbs and flushes live streams \
                   there on SIGINT/SIGTERM.")
  in
  let ckpt_every =
    Arg.(value & opt (some int) None
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Auto-checkpoint every streaming session each time its alarm \
                   count reaches a multiple of N (needs --checkpoint-dir).")
  in
  let recover =
    Arg.(value & flag
         & info [ "recover" ]
             ~doc:"As tenants register, restore their sessions from the \
                   snapshot store (needs --checkpoint-dir).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-tenant diagnosis service (line protocol; see \
             Service.Serve).")
    Term.(const run $ socket $ once $ quantum $ stream_budget $ ckpt_dir $ ckpt_every
          $ recover $ stats_arg $ trace_arg)

(* ---------------- generate ---------------- *)

let generate_cmd =
  let run seed peers comps places locals syncs alphabet steps =
    let spec =
      {
        Petri.Generator.peers;
        components_per_peer = comps;
        places_per_component = places;
        local_transitions = locals;
        sync_transitions = syncs;
        alarm_symbols = alphabet;
      }
    in
    let rng = Random.State.make [| seed |] in
    let net = Petri.Generator.generate ~rng spec in
    let alarms =
      if steps = 0 then None
      else Some (snd (Petri.Generator.scenario ~rng ~steps net))
    in
    print_string (Petri.Parse.print { Petri.Parse.net; alarms })
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.") in
  let peers = Arg.(value & opt int 2 & info [ "peers" ] ~doc:"Number of peers.") in
  let comps = Arg.(value & opt int 2 & info [ "components" ] ~doc:"Components per peer.") in
  let places = Arg.(value & opt int 3 & info [ "places" ] ~doc:"Places per component.") in
  let locals = Arg.(value & opt int 3 & info [ "local" ] ~doc:"Local transitions per component.") in
  let syncs = Arg.(value & opt int 2 & info [ "sync" ] ~doc:"Cross-component transitions.") in
  let alphabet = Arg.(value & opt int 3 & info [ "alphabet" ] ~doc:"Alarm symbols.") in
  let steps =
    Arg.(value & opt int 0
         & info [ "scenario" ] ~docv:"STEPS"
             ~doc:"Also execute STEPS random firings and attach the observed alarms.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random distributed safe net.")
    Term.(const run $ seed $ peers $ comps $ places $ locals $ syncs $ alphabet $ steps)

let () =
  let doc = "diagnosis of asynchronous discrete event systems with (d)Datalog" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "diag" ~version:"1.0.0" ~doc)
          [ info_cmd; dot_cmd; unfold_cmd; encode_cmd; diagnose_cmd; verify_cmd; rewrite_cmd; generate_cmd; fuzz_cmd; serve_cmd ]))
