(** Compact, versioned binary codec for protocol messages and diagnosis
    configurations.

    A frame is an unsigned LEB128 varint length followed by the body:
    one version byte, one frame-kind byte (message / configuration set /
    ack), then the payload. Each connection direction keeps append-only
    symbol and term tables; the first occurrence of a symbol costs its
    name and later occurrences a small varint id, and each hash-consed
    term node is serialized once per connection — shared Skolem spines
    cross the wire a single time. Decoding goes back through the
    hash-consing constructors, so decoded terms are {e physically} equal
    to the encoded ones.

    Counters [wire.bytes_sent], [wire.bytes_recv] and [wire.frames] in
    the default {!Obs.Metrics} registry account every frame, and
    {!table_entries} counts the codec-table entries of a set of channels,
    so unbounded channel-table growth is visible in [serve stats]
    instead of only in RSS. *)

open Datalog

val version : int

exception Corrupt of string
(** Raised by decoders on malformed input (truncation, bad tags, version
    or kind mismatch, out-of-range table ids, trailing bytes). *)

exception Roundtrip_mismatch of string
(** Raised by verifying sizers when a decoded message is not physically
    identical to the one encoded. *)

type encoder
(** Sending half of a connection: symbol/term tables plus scratch buffer.
    Not thread-safe; the sizers serialize access per channel. *)

type decoder
(** Receiving half: the id -> symbol/term tables. *)

val encoder : unit -> encoder
val decoder : unit -> decoder

val encode_message : encoder -> Message.t -> string
val decode_message : decoder -> string -> Message.t

val encode_configs : encoder -> Term.t list list -> string
(** A diagnosis as a set of configurations, each a list of ground terms —
    the service's report frame (the diagnosis layer converts its
    [Canon.config] sets to lists and back). *)

val decode_configs : decoder -> string -> Term.t list list

(** {2 Snapshot frames and raw primitives}

    The [snapshot] frame kind carries serialized engine state (see
    [Snapshot] and [Online.checkpoint]). The body layout is owned by the
    caller; these primitives expose the codec's varint/string encoding
    and — crucially — its definition-or-backref term tables, so a
    snapshot shares each hash-consed spine across the whole frame and
    restore re-interns to physical equality. *)

type reader
(** Cursor over a received frame's bytes. *)

val put_uvarint : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val put_term : encoder -> Buffer.t -> Term.t -> unit

val get_uvarint : reader -> int
val get_string : reader -> string
val get_term : decoder -> reader -> Term.t

val encode_snapshot : encoder -> (Buffer.t -> unit) -> string
(** [encode_snapshot e put_body] builds a length-prefixed snapshot frame
    whose body is written by [put_body] (terms via [put_term e]). *)

val decode_snapshot : decoder -> string -> (reader -> 'a) -> 'a
(** [decode_snapshot d s get_body] validates the frame envelope (length,
    version, kind, exact consumption) and hands the body to [get_body]
    (terms via [get_term d]). Raises {!Corrupt} on malformed input. *)

type channels
(** One (encoder, decoder) pair per directed channel, created on first
    send. Thread-safe. *)

val channels : unit -> channels

val table_entries : channels -> int * int
(** (symbols, terms) held by the tables of every channel half, encoders
    and decoders alike. The tables are append-only and live as long as
    their channels. *)

val wrapped_sizer :
  ?verify:bool -> channels -> src:string -> dst:string -> Message.t Network.Termination.wrapped -> int
(** A [Sim.size_of] implementation: encodes each message with its
    channel's connection state and reports the actual frame length,
    so byte totals reflect the codec's history-dependent compression
    (definitions first, references after). With [verify], every message
    is also decoded through the channel's receiving half and checked
    physically identical to the original ({!Roundtrip_mismatch}
    otherwise) — the service runs with this on. *)

val message_sizer : ?verify:bool -> channels -> src:string -> dst:string -> Message.t -> int
(** Same for unwrapped messages (the distributed naive engine). *)
