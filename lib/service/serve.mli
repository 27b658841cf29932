(** The [diag serve] protocol: line-oriented requests over stdin/stdout or
    a Unix-domain socket, one {!Coordinator} shared by every connection.

    Requests (one per line, space-separated; [#] starts a comment):
    {v
      tenant NAME NETFILE      register a tenant from a Petri.Parse file
      open TENANT              -> ok session SID
      stream TENANT [BUDGET]   -> ok stream SID (incremental session;
                               BUDGET overrides the stream state budget)
      alarm SID SYMBOL PEER    append one observed alarm (streams explain
                               it immediately; a tripped state budget
                               fails the session, not the server)
      run SID                  start + drive to quiescence -> ok done ...
      report SID               -> ok report SID, indented body, end
                               (streams: the diagnosis at this prefix;
                               the session stays open)
      checkpoint SID           persist a streaming session to the store
                               -> ok checkpoint SID FILE BYTES
      restore FILE             thaw a stored snapshot into a fresh stream
                               -> ok restored SID tenant T alarms N
      recover                  restore the store's latest snapshot of
                               every registered tenant's sessions
                               -> ok recovered N sessions SIDS
      close SID                forget a finished or streaming session
      stats                    -> ok stats tenants=.. active=.. ...
                               wire_syms=.. wire_terms=.. (codec-table
                               entries of the live engines' channels)
      quit                     -> ok bye (socket clients disconnect)
    v}
    Every response is one [ok ...] or [err ...] line, except [report],
    whose body lines are indented by two spaces and terminated by [end].
    While one client blocks in [run], other running sessions keep
    advancing — the coordinator round-robins them.

    The durability verbs need a snapshot store ({!checkpoints}); without
    one they answer [err no snapshot store ...]. With [every = Some n],
    every streaming session is checkpointed each time its alarm count
    reaches a multiple of [n] (logged to stderr — the protocol stream is
    untouched). With [recover = true], registering a tenant immediately
    restores that tenant's stored sessions (the startup recovery scan,
    deferred to the moment the net is known).

    SIGINT/SIGTERM shut the server down gracefully: every live streaming
    session is flushed to the store, the client channel and listening
    socket are closed, and the socket file is unlinked — never a death
    mid-frame. *)

type checkpoints = {
  store : Snapshot.store;
  every : int option;  (** auto-checkpoint a stream every N alarms *)
  recover : bool;  (** restore a tenant's stored streams as it registers *)
}

val stdio : ?checkpoints:checkpoints -> Coordinator.t -> unit
(** Serve stdin to EOF (or [quit]). *)

val socket : ?checkpoints:checkpoints -> Coordinator.t -> path:string -> once:bool -> unit
(** Listen on a Unix-domain socket at [path]; serve connections
    sequentially — forever, or exactly one with [once]. The socket file is
    unlinked on exit. *)
