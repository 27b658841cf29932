(** Named-instrument registry: counters, gauges, and log-scale histograms.

    Names follow the [subsystem.metric] scheme (["fact_store.probes"],
    ["sim.delivered"], ...). Registering a name twice returns the same
    instrument, so modules share instruments by agreeing on names; asking
    for a name under a different instrument kind raises [Invalid_argument].
    Updates are cheap enough to leave on, and every instrument is safe to
    update concurrently from multiple domains: counters and gauges are a
    single [Atomic.t] each, histograms and the registry itself are
    mutex-guarded. *)

type counter
type gauge
type histogram
type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type registry

val create_registry : unit -> registry

val default : registry
(** The process-wide registry behind {!Snapshot} and the CLI surfaces. *)

val counter : ?registry:registry -> string -> counter
val gauge : ?registry:registry -> string -> gauge
val histogram : ?registry:registry -> string -> histogram

val incr : ?by:int -> counter -> unit
val value : counter -> int

val set : gauge -> int -> unit
val gauge_value : gauge -> int

val add_gauge : gauge -> int -> unit
(** Atomically add a (possibly negative) delta — for gauges tracking a
    population (live fact stores, active sessions) rather than a level
    sampled from elsewhere. *)

val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit

type histogram_summary = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
  buckets : (float * int) list;
      (** (upper bound, observations in that log-2 bucket), ascending; an
          upper bound of 0 collects the non-positive observations *)
}

val summary : histogram -> histogram_summary

val kind_of : instrument -> string

val instruments : registry -> (string * instrument) list
(** All registered instruments, sorted by name (deterministic). *)

val counter_value : ?registry:registry -> string -> int
(** Value of a named counter; 0 when absent or not a counter. *)

val reset : ?registry:registry -> unit -> unit
(** Zero every instrument; handles stay valid. *)
