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

    These frames are the messages of the simulated network: {!codec} gives
    each directed channel its own connection, the sender's encoder makes
    the frame at send and the receiver's decoder turns it back into the
    message at delivery, so every dQSQ, naive and service run exercises
    the codec.

    Located names — a delegation's origin relation, adornment and owner,
    and the relation and peer of each located atom — go through a third
    definition-or-backref table of plain strings, so every name crosses a
    directed channel once and decoding one interns no {!Datalog.Symbol}.
    A delegation frame carries only what its receiver cannot rebuild: no
    dedup key ({!Message.key}), no bound variables (the variables of
    [sup_{i,j-1}]), and of that atom only the arguments. Rules keep their
    own variable names, so a fragment sent again on a channel is
    backrefs.

    A {!Message.Batch} writes its message count, then its messages, but
    two or more consecutive facts over one relation and one nonzero arity
    as one run: the relation, the arity and the count once, then each
    fact's arguments. The decoder expands a run into the same facts in
    the same order; a run whose count the batch or the bytes left cannot
    hold is {!Corrupt} before any fact is built.

    A subscription or a fact over a located supplementary relation
    carries, the first time that relation crosses a channel, its parts
    rather than its name: origin and adornment through the names table,
    then rule index and position as varints, and later a symbol backref.
    The owner is not written: a fact is sent by its relation's owner and
    a subscription to it, so the channel's ends ({!encoder} [~src ~dst])
    give it. The decoder looks the symbol up in {!Message}'s registry
    ({!Message.find_sup}) and interns nothing; parts that name no symbol
    built in this process are {!Corrupt}. Any other relation, and every
    relation on a connection without ends, is written by its name.
    Message frames are never stored, so these layouts did not change the
    version byte, which stored snapshots and the digested report frames
    carry.

    Counters [wire.bytes_sent], [wire.bytes_recv] and [wire.frames] in
    the default {!Obs.Metrics} registry account every frame, and
    [wire.bytes.delegate], [wire.bytes.fact] and [wire.bytes.subscribe]
    the bytes of each message kind (a run of facts is fact bytes); the
    rest of [wire.bytes_sent] is framing (length prefixes, headers,
    envelopes, acks and the other frame kinds). {!table_entries} counts
    the codec-table entries of a set of channels, so unbounded
    channel-table growth is visible in [serve stats] instead of only in
    RSS. *)

open Datalog

exception Corrupt of string
(** Raised by decoders on malformed input (truncation, bad tags, version
    or kind mismatch, out-of-range table ids, trailing bytes). *)

type encoder
(** Sending half of a connection: symbol/term tables plus scratch buffer.
    Not thread-safe; one sender uses it at a time. *)

type decoder
(** Receiving half: the id -> symbol/term tables. *)

val encoder : ?src:string -> ?dst:string -> unit -> encoder
val decoder : ?src:string -> ?dst:string -> unit -> decoder
(** [src] and [dst] are the peers at the two ends of a simulated channel,
    the same on both halves; with both, a supplementary relation crosses
    as its parts. *)

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

val frames : string -> string list
(** Split frames written back to back (a snapshot chain) at their length
    prefixes, without decoding them; [""] is the empty list. A chain
    encoded through one encoder must be decoded, in order, through one
    decoder: a later frame refers to the terms an earlier one defined.
    Raises {!Corrupt} when the last frame is cut short. *)

type channels
(** The codec factory of one simulated network: it builds one (encoder,
    decoder) pair per directed channel and remembers them all for
    {!table_entries}. *)

val channels : unit -> channels

val codec :
  channels ->
  src:string ->
  dst:string ->
  (Message.t Network.Termination.wrapped -> string)
  * (string -> Message.t Network.Termination.wrapped)
(** The codec maker for [Network.Sim.create]: a fresh connection for the
    channel [src -> dst]. [Work m] encodes to exactly the frame of [m]
    ({!encode_message}); [Ack] is a frame of its own kind. Decoding
    re-interns every term, so the receiver's terms are physically the
    sender's. *)

val table_entries : channels -> int * int
(** (symbols, terms) held by the tables of every channel half, encoders
    and decoders alike; the symbols count includes the names table. The
    tables are append-only and live as long as their channels. *)
