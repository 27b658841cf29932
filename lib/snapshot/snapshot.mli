(** Durable snapshots: the service's crash-recovery and migration layer.

    A {!stream_image} is one streaming session frozen at an alarm
    boundary: the session metadata the coordinator tracks (tenant,
    session id, counters) plus the engine's checkpoint chain
    ([Online.checkpoint] frames, concatenated), nested opaquely — this
    library splits the chain at its frame boundaries and never looks
    inside a frame. Images serialize as wire [snapshot] frames and
    round-trip through {!encode_stream} / {!decode_stream} for migration
    between coordinators, or through a {!store} for crash recovery.

    A store is a directory of [stream-<session>-<alarms>.snap] files and
    holds one chain per session. A {e base} file is a whole image, as
    {!encode_stream} writes it; a {e segment} file holds an image's
    metadata and only the frames its chain adds to the file before it,
    linked to that file by its alarm count and the digest of its bytes.
    {!write} persists what the store lacks of the image's chain: a
    segment when the image's chain extends what this store handle last
    wrote for the session and those files are still on disk, a base
    otherwise — so a failed write is healed by the next one, never
    leaves a gap. Every write is atomic (temp file + rename), and a write
    prunes the session's files outside its chain (a new base prunes the
    whole older chain). {!scan} and {!read} assemble a base and the
    segments linked to it; a torn, missing or foreign file stops the
    chain there, so recovery gets its longest valid prefix, never two
    chains spliced together.

    Counters [snapshot.checkpoints], [snapshot.restores] and
    [snapshot.bytes_written] account store traffic. *)

type stream_image = {
  tenant : string;
  session : int;  (** session id at checkpoint time; restore may renumber *)
  alarms : int;  (** alarms consumed when the image was taken *)
  reports : int;
  wire_bytes : int;
  peak_live : int;
  engine : string;
      (** the engine's checkpoint chain: [Online.checkpoint] frames
          written through one encoder, concatenated; opaque *)
}

val encode_stream : stream_image -> string
(** One self-contained wire [snapshot] frame (stream sub-kind). *)

val decode_stream : string -> stream_image
(** @raise Dqsq.Wire.Corrupt on malformed input, a store segment file
    included (it is not self-contained). *)

type store

val open_store : string -> store
(** Open (creating directories as needed) a snapshot directory. The
    handle remembers which files it wrote of each session's chain, so a
    later {!write} of the same chain adds a segment. *)

val dir : store -> string

val write : store -> stream_image -> string
(** Atomically persist an image and return its file's basename: a
    segment holding the frames of the image's chain past this handle's
    last file of the session, when the chain extends it and every file
    of it is still on disk; otherwise a base holding the whole image.
    The session's files outside the resulting chain are pruned after the
    rename. A write that raises leaves the store's chain as it was, and
    the next write makes up for it.
    @raise Sys_error when the store cannot be written *)

val read : store -> string -> stream_image
(** The image of the chain up to one file, by basename: its own
    metadata, and the engine frames of every file back to its base. Only
    names of the form [stream-<session>-<alarms>.snap] (what {!write}
    returns) are accepted, so a name can never reach a file outside the
    store.
    @raise Dqsq.Wire.Corrupt on malformed content, or when a link back
    to the base is missing, torn or foreign
    @raise Sys_error when the name is not a snapshot basename or the file
    cannot be read *)

val scan : store -> (string * stream_image) list
(** Per session, the latest file whose chain back to a base holds, as
    (basename, image of the chain up to it) sorted by session id. Corrupt
    or foreign files are skipped, and a segment past a torn, missing or
    foreign link is not reached: recovery gets the longest valid prefix
    of the chain. *)
