(** Named-instrument registry: counters, gauges, and log-scale histograms.

    Instruments are identified by dotted names following the
    [subsystem.metric] scheme (e.g. ["fact_store.probes"]). Looking up a
    name a second time returns the same instrument, so independent modules
    can share a counter by agreeing on its name. The process-wide
    {!default} registry backs the snapshot surfaces, while components that
    need per-instance accounting (the network simulator) carry their own
    registry.

    Every instrument is safe to update from any domain, so instrumentation
    stays on in parallel dQSQ runs:
    - counters and gauges are a single [Atomic.t] each;
    - histograms and the registry table itself are mutex-guarded (they are
      off the hot paths). *)

type counter = int Atomic.t
type gauge = int Atomic.t

type histogram = {
  h_mu : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : (int, int ref) Hashtbl.t;
      (* exponent e counts observations with 2^(e-1) < v <= 2^e; the
         special key [min_int] counts non-positive observations *)
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type registry = { tbl : (string, instrument) Hashtbl.t; mu : Mutex.t }

let create_registry () : registry =
  { tbl = Hashtbl.create 64; mu = Mutex.create () }

let default : registry = create_registry ()

let kind_of = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register (registry : registry) name make classify =
  Mutex.protect registry.mu (fun () ->
      match Hashtbl.find_opt registry.tbl name with
      | Some ins -> (
        match classify ins with
        | Some x -> x
        | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_of ins)))
      | None ->
        let x, ins = make () in
        Hashtbl.add registry.tbl name ins;
        x)

let counter ?(registry = default) name : counter =
  register registry name
    (fun () -> let c = Atomic.make 0 in (c, Counter c))
    (function Counter c -> Some c | Gauge _ | Histogram _ -> None)

let gauge ?(registry = default) name : gauge =
  register registry name
    (fun () -> let g = Atomic.make 0 in (g, Gauge g))
    (function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let histogram ?(registry = default) name : histogram =
  register registry name
    (fun () ->
      let h =
        { h_mu = Mutex.create (); h_count = 0; h_sum = 0.0;
          h_min = infinity; h_max = neg_infinity; h_buckets = Hashtbl.create 8 }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | Counter _ | Gauge _ -> None)

let incr ?(by = 1) (c : counter) = ignore (Atomic.fetch_and_add c by)
let value (c : counter) = Atomic.get c

let set (g : gauge) v = Atomic.set g v
let gauge_value (g : gauge) = Atomic.get g
let add_gauge (g : gauge) d = ignore (Atomic.fetch_and_add g d)

(* Log-scale (base 2) bucketing: an observation v > 0 lands in the bucket
   whose upper bound is the smallest power of two >= v. *)
let bucket_exponent v =
  if v <= 0.0 then min_int
  else
    let e = int_of_float (Float.ceil (Float.log2 v)) in
    (* guard against rounding at exact powers of two *)
    if Float.pow 2.0 (float_of_int (e - 1)) >= v then e - 1 else e

let observe (h : histogram) v =
  Mutex.protect h.h_mu (fun () ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let e = bucket_exponent v in
      match Hashtbl.find_opt h.h_buckets e with
      | Some r -> Stdlib.incr r
      | None -> Hashtbl.add h.h_buckets e (ref 1))

let observe_int h n = observe h (float_of_int n)

type histogram_summary = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
  buckets : (float * int) list;
      (** (upper bound, observations in that log-2 bucket), ascending *)
}

let summary (h : histogram) : histogram_summary =
  Mutex.protect h.h_mu (fun () ->
      let buckets =
        Hashtbl.fold
          (fun e r acc ->
            let le = if e = min_int then 0.0 else Float.pow 2.0 (float_of_int e) in
            (le, !r) :: acc)
          h.h_buckets []
        |> List.sort compare
      in
      { count = h.h_count; sum = h.h_sum; min = h.h_min; max = h.h_max; buckets })

let instruments (registry : registry) : (string * instrument) list =
  Mutex.protect registry.mu (fun () ->
      Hashtbl.fold (fun name ins acc -> (name, ins) :: acc) registry.tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find ?(registry = default) name =
  Mutex.protect registry.mu (fun () -> Hashtbl.find_opt registry.tbl name)

(** Current value of a named counter, 0 when absent or not a counter —
    convenient for tests and thin read-only views. *)
let counter_value ?(registry = default) name =
  match find ~registry name with Some (Counter c) -> value c | _ -> 0

(** Zero every instrument (the instruments themselves stay registered, so
    handles held by other modules remain valid). *)
let reset ?(registry = default) () =
  Mutex.protect registry.mu (fun () ->
      Hashtbl.iter
        (fun _ ins ->
          match ins with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g 0
          | Histogram h ->
            Mutex.protect h.h_mu (fun () ->
                h.h_count <- 0;
                h.h_sum <- 0.0;
                h.h_min <- infinity;
                h.h_max <- neg_infinity;
                Hashtbl.reset h.h_buckets))
        registry.tbl)
