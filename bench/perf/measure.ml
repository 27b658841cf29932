(* Measurement plumbing shared by the workloads: the op recorder, the
   bench-side spans around every public call, counter and GC deltas, span
   self-time aggregation, and the JSON output. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Samples and order statistics                                        *)
(* ------------------------------------------------------------------ *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

(* Nearest-rank quantile of samples [first, last); [nan] when empty
   (never reached by a run that attempted an op). *)
let quantile_range s ~first ~last q =
  let n = last - first in
  if n <= 0 then nan
  else begin
    let a = Array.sub s.data first n in
    Array.sort Float.compare a;
    a.(min (n - 1) (int_of_float (q *. float_of_int n)))
  end

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* The op recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* One episode's ops are the latency samples [first, last). *)
type episode = { first : int; last : int; wall : float }

type recorder = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  lat : samples;  (** per-op latency, seconds *)
  mutable episodes : episode list;  (** newest first *)
  mutable ep_first : int;  (** the open episode's first sample *)
  mutable ep_t0 : float;
  mutable io_bytes : int;  (** wire frames and snapshot bytes the ops emitted *)
  extras : (string, float) Hashtbl.t;
      (** per-layer readings only the workload can take (stream gauges,
          report sizes, pool reuse) *)
}

let recorder workload =
  { workload; attempted = 0; failed = 0; lat = samples (); episodes = []; ep_first = 0;
    ep_t0 = 0.; io_bytes = 0; extras = Hashtbl.create 8 }

(* Episodes: every episode of a run does the same work, so per-episode
   statistics are comparable and their median shrugs off a burst of
   outside load. A workload either runs [episodes], or opens them with
   [start_episodes] and closes each with [close_episode] itself. *)
let start_episodes r =
  r.ep_first <- r.lat.len;
  r.ep_t0 <- now ()

let close_episode r =
  let t = now () in
  r.episodes <- { first = r.ep_first; last = r.lat.len; wall = t -. r.ep_t0 } :: r.episodes;
  r.ep_first <- r.lat.len;
  r.ep_t0 <- t

(* Whole episodes until the deadline, and at least one. *)
let episodes r ~deadline f =
  start_episodes r;
  f ();
  close_episode r;
  while now () < deadline do
    f ();
    close_episode r
  done

let episode_throughputs r =
  List.rev_map (fun e -> float_of_int (e.last - e.first) /. e.wall) r.episodes

let episode_quantile r q =
  median (List.map (fun e -> quantile_range r.lat ~first:e.first ~last:e.last q) r.episodes)

(* A fresh op id; the op is counted as attempted from here on. *)
let begin_op r =
  let id = r.attempted in
  r.attempted <- id + 1;
  id

(* A failed check outside an op's own result (a report, a close). *)
let fail r = r.failed <- r.failed + 1

let end_op r ~ok dt =
  push r.lat dt;
  if not ok then fail r

let extra r name = Option.value (Hashtbl.find_opt r.extras name) ~default:0.
let set r name v = Hashtbl.replace r.extras name v
let add r name v = set r name (extra r name +. v)

let note_max r name v =
  match Hashtbl.find_opt r.extras name with
  | Some prev when prev >= v -> ()
  | _ -> set r name v

(* Every public call the workloads make goes through [call]: with tracing
   on it is a span tagged with the workload and the op it serves, with
   tracing off it costs one branch. *)
let call r ?op name f =
  if Obs.Trace.enabled () then
    let op = Option.value op ~default:(r.attempted - 1) in
    Obs.Trace.with_span ~attrs:[ ("workload", r.workload); ("op", string_of_int op) ] name f
  else f ()

(* ------------------------------------------------------------------ *)
(* Counter and GC deltas                                               *)
(* ------------------------------------------------------------------ *)

let counter_names =
  [ "fact_store.probes"; "fact_store.candidates"; "fact_store.full_scans";
    "eval.rules_fired"; "eval.facts_derived"; "term.interned"; "term.hashcons_hits";
    "sim.delivered"; "sim.bytes"; "qsq.delegations"; "qsq.subscriptions";
    "qsq.fact_messages"; "wire.frames"; "wire.bytes_sent"; "online.gc_reclaimed";
    "snapshot.bytes_written" ]

let channel_prefix = "sim.channel_bytes."

(* Counter values by name: the fixed list plus every per-channel byte
   counter the simulator has registered so far. *)
let counters () =
  let chans =
    List.filter_map
      (fun (name, i) ->
        match i with
        | Obs.Metrics.Counter c when String.starts_with ~prefix:channel_prefix name ->
          Some (name, Obs.Metrics.value c)
        | _ -> None)
      (Obs.Metrics.instruments Obs.Metrics.default)
  in
  List.map (fun n -> (n, Obs.Metrics.counter_value n)) counter_names @ chans

let delta ~before ~after =
  List.map
    (fun (n, v) -> (n, float_of_int (v - Option.value (List.assoc_opt n before) ~default:0)))
    after

(* Share of simulated-network bytes sent by the busiest peer: the
   Grumbach–Wang–Wu per-peer load skew. *)
let max_peer_frac d =
  let by_src = Hashtbl.create 8 in
  List.iter
    (fun (n, v) ->
      if String.starts_with ~prefix:channel_prefix n then begin
        let chan = String.sub n (String.length channel_prefix) (String.length n - String.length channel_prefix) in
        let src = match String.index_opt chan '-' with Some i -> String.sub chan 0 i | None -> chan in
        Hashtbl.replace by_src src (v +. Option.value (Hashtbl.find_opt by_src src) ~default:0.)
      end)
    d;
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) by_src 0. in
  ratio (Hashtbl.fold (fun _ v acc -> Float.max v acc) by_src 0.) total

type gc = { minor : float; promoted : float; majors : int }

let gc () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words; majors = s.Gc.major_collections }

let gc_since g0 =
  let g = gc () in
  { minor = g.minor -. g0.minor; promoted = g.promoted -. g0.promoted; majors = g.majors - g0.majors }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Span self times                                                     *)
(* ------------------------------------------------------------------ *)

(* Spans complete in post-order, so a per-depth accumulator of finished
   children's durations gives each span's self time in one pass. Returns
   (self seconds, span count) by name and the time covered by top-level
   spans. *)
let self_times (spans : Obs.Trace.span list) =
  let by_name = Hashtbl.create 32 in
  let child = Array.make 256 0. in
  List.iter
    (fun (sp : Obs.Trace.span) ->
      let d = sp.depth in
      let self = sp.duration_s -. child.(d + 1) in
      child.(d + 1) <- 0.;
      child.(d) <- child.(d) +. sp.duration_s;
      let s, n = Option.value (Hashtbl.find_opt by_name sp.name) ~default:(0., 0) in
      Hashtbl.replace by_name sp.name (s +. self, n + 1))
    spans;
  (by_name, child.(0))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* Full precision, and never a non-finite number (not JSON). *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s = "\"" ^ Obs.Trace.json_escape s ^ "\""

let json_list items = "[" ^ String.concat ", " items ^ "]"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_metrics (ms : (string * float * string) list) =
  json_obj
    (List.map
       (fun (name, v, unit) ->
         (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
       ms)
