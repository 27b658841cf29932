(** Span-based tracer with a bounded ring buffer and pluggable sinks.

    Disabled by default: with the sink [Off] and recording off,
    {!with_span} is one branch and no clock reads. *)

type sink =
  | Off
  | Stderr  (** human-readable lines, indented by nesting depth *)
  | Json_lines of out_channel  (** one JSON object per completed span *)

type span = {
  name : string;
  attrs : (string * string) list;
  start_s : float;  (** wall-clock, seconds *)
  duration_s : float;
  depth : int;  (** nesting depth at emission, 0 = toplevel *)
}

val set_sink : sink -> unit

val set_recording : bool -> unit
(** Record spans to the ring buffer even with the sink [Off]. *)

val set_capacity : int -> unit
(** Resize the ring buffer (default 256); discards recorded spans.
    @raise Invalid_argument on a non-positive capacity. *)

val clear : unit -> unit

val enabled : unit -> bool

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Time a region. Exceptions propagate; the span is still recorded, with
    an added [exception] attribute. *)

val recent : unit -> span list
(** Completed spans, oldest first (at most the ring capacity). *)

val json_escape : string -> string
(** Escape a string for inclusion in a JSON string literal (shared with
    {!Snapshot}). *)
