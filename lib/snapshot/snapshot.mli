(** Durable snapshots: the service's crash-recovery and migration layer.

    A {!stream_image} is one streaming session frozen at an alarm
    boundary: the session metadata the coordinator tracks (tenant,
    session id, counters) plus the engine's own checkpoint frame
    ([Online.checkpoint]), nested opaquely — this library never looks
    inside it. Images serialize as wire [snapshot] frames and round-trip
    through {!encode_stream} / {!decode_stream} for migration between
    coordinators, or through a {!store} for crash recovery.

    A store is a directory of [stream-<session>-<alarms>.snap] files.
    Writes are atomic (temp file + rename) and prune the session's older
    snapshots, so readers — including a recovery scan racing a crash —
    only ever see complete frames, and the directory holds at most one
    snapshot per session. {!scan} returns the latest valid image per
    session and skips unreadable or torn files rather than failing the
    whole recovery.

    Counters [snapshot.checkpoints], [snapshot.restores] and
    [snapshot.bytes_written] account store traffic. *)

type stream_image = {
  tenant : string;
  session : int;  (** session id at checkpoint time; restore may renumber *)
  alarms : int;  (** alarms consumed when the image was taken *)
  reports : int;
  wire_bytes : int;
  peak_live : int;
  engine : string;  (** the engine's [Online.checkpoint] frame, opaque *)
}

val encode_stream : stream_image -> string
(** One self-contained wire [snapshot] frame (stream sub-kind). *)

val decode_stream : string -> stream_image
(** @raise Dqsq.Wire.Corrupt on malformed input. *)

type store

val open_store : string -> store
(** Open (creating directories as needed) a snapshot directory. *)

val dir : store -> string

val write : store -> stream_image -> string
(** Atomically persist an image; returns the file's basename. Older
    snapshots of the same session are pruned after the rename. *)

val read : store -> string -> stream_image
(** Read one snapshot by basename. Only names of the form
    [stream-<session>-<alarms>.snap] (what {!write} returns) are accepted,
    so a name can never reach a file outside the store.
    @raise Dqsq.Wire.Corrupt on malformed content
    @raise Sys_error when the name is not a snapshot basename or the file
    cannot be read *)

val scan : store -> (string * stream_image) list
(** The latest valid snapshot per session, as (basename, image) sorted by
    session id; corrupt or foreign files are skipped. *)
