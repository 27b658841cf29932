(** The fuzz driver. Deterministic: case [i] is the case of seed
    [config.seed + i], failures shrink with a bounded greedy search. *)

type config = {
  runs : int;
  seed : int;
  pins : Gen.pins;
  properties : Property.t list;
  max_shrink_checks : int;
}

let default_config =
  {
    runs = 100;
    seed = 0;
    pins = Gen.no_pins;
    properties = Property.all;
    max_shrink_checks = 200;
  }

type failure = {
  case : Gen.case;
  property : Property.t;
  reason : string;
  shrunk : Property.instance;
  shrunk_reason : string;
  shrink_steps : int;
}

type report = {
  cases : int;
  checks : int;
  skipped : int;
  failures : failure list;
}

(* The property's verdict, an instance outside its precondition passing:
   shrinking through [holds] never leaves the precondition of the property
   it minimizes. *)
let holds (property : Property.t) i =
  if property.Property.applies i then property.Property.check i else Property.Pass

(* Spec-level shrinking first: regenerate the same seed from structurally
   smaller specs (the {!Petri.Generator.shrink_spec} hook) while the
   property still fails — one accepted step here can discard several
   components at once, which net-level surgery would pay for one candidate
   at a time. *)
let shrink_spec_level ~budget ~pins (property : Property.t) (case : Gen.case) :
    Gen.case * int =
  let steps = ref 0 in
  let fails_on spec =
    !budget > 0
    &&
    match Gen.case ~pins:{ pins with Gen.pin_spec = Some spec } ~seed:case.Gen.seed () with
    | exception _ -> false
    | c -> (
      decr budget;
      match holds property (Property.instance_of_case c) with
      | Property.Fail _ -> true
      | Property.Pass -> false)
  in
  let rec go (c : Gen.case) =
    match List.find_opt fails_on (Petri.Generator.shrink_spec c.Gen.spec) with
    | Some spec ->
      incr steps;
      go (Gen.case ~pins:{ pins with Gen.pin_spec = Some spec } ~seed:c.Gen.seed ())
    | None -> c
  in
  (go case, !steps)

let minimize (config : config) (property : Property.t) (case : Gen.case)
    ~(reason : string) : failure =
  let budget = ref config.max_shrink_checks in
  let case', spec_steps = shrink_spec_level ~budget ~pins:config.pins property case in
  let r =
    Shrink.shrink ~max_checks:(max 0 !budget) ~check:(holds property)
      (Property.instance_of_case case')
  in
  let shrunk_reason =
    match holds property r.Shrink.instance with
    | Property.Fail m -> m
    | Property.Pass -> reason (* budget exhausted mid-path; keep the original *)
  in
  {
    case;
    property;
    reason;
    shrunk = r.Shrink.instance;
    shrunk_reason;
    shrink_steps = spec_steps + r.Shrink.steps;
  }

let run ?(on_case = fun _ -> ()) (config : config) : report =
  let checks = ref 0 and skipped = ref 0 and failures = ref [] in
  for i = 0 to config.runs - 1 do
    let case = Gen.case ~pins:config.pins ~seed:(config.seed + i) () in
    on_case case;
    let instance = Property.instance_of_case case in
    List.iter
      (fun (p : Property.t) ->
        if not (p.Property.applies instance) then incr skipped
        else begin
          incr checks;
          match p.Property.check instance with
          | Property.Pass -> ()
          | Property.Fail reason ->
            failures := minimize config p case ~reason :: !failures
        end)
      config.properties
  done;
  {
    cases = config.runs;
    checks = !checks;
    skipped = !skipped;
    failures = List.rev !failures;
  }

(* ------------------------------ rendering ----------------------------- *)

let replay_recipe (config : config) (f : failure) : string =
  let b = Buffer.create 80 in
  Buffer.add_string b
    (Printf.sprintf "diag fuzz --runs 1 --seed %d --property %s" f.case.Gen.seed
       f.property.Property.name);
  (match config.pins.Gen.pin_spec with
  | Some s -> Buffer.add_string b (" --spec " ^ Gen.spec_to_string s)
  | None -> ());
  (match config.pins.Gen.pin_steps with
  | Some n -> Buffer.add_string b (Printf.sprintf " --steps %d" n)
  | None -> ());
  (match config.pins.Gen.pin_policy with
  | Some p -> Buffer.add_string b (" --policy " ^ Gen.policy_name p)
  | None -> ());
  (match config.pins.Gen.pin_loss with
  | Some l -> Buffer.add_string b (Printf.sprintf " --loss %g" l)
  | None -> ());
  (match config.pins.Gen.pin_jobs with
  | Some j -> Buffer.add_string b (Printf.sprintf " --jobs %d" j)
  | None -> ());
  Buffer.contents b

let indent prefix text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> prefix ^ l)
  |> String.concat "\n"

let print_failure (config : config) (f : failure) : string =
  let i = f.shrunk in
  let net_text =
    Petri.Parse.print { Petri.Parse.net = i.Property.net; alarms = Some i.Property.alarms }
  in
  String.concat "\n"
    [
      Printf.sprintf "FAIL [%s] %s" f.property.Property.name f.property.Property.theorem;
      "  case:   " ^ Gen.describe f.case;
      "  reason: " ^ f.reason;
      "  replay: " ^ replay_recipe config f;
      Printf.sprintf "  shrunk counterexample (%d step%s): %s" f.shrink_steps
        (if f.shrink_steps = 1 then "" else "s")
        f.shrunk_reason;
      indent "    | " net_text;
      Printf.sprintf "    | # schedule: policy=%s sim-seed=%d loss=%.2f jobs=%d"
        (Gen.policy_name i.Property.policy) i.Property.sim_seed i.Property.loss
        i.Property.jobs;
    ]

let print_report (config : config) (report : report) : string =
  let blocks = List.map (print_failure config) report.failures in
  let summary =
    Printf.sprintf
      "fuzz: %d case%s, %d property check%s (%d skipped), %d failure%s (seed %d)"
      report.cases
      (if report.cases = 1 then "" else "s")
      report.checks
      (if report.checks = 1 then "" else "s")
      report.skipped (List.length report.failures)
      (if List.length report.failures = 1 then "" else "s")
      config.seed
  in
  String.concat "\n\n" (blocks @ [ summary ])
