(** Crash recovery: checkpoint + log tail → a serving engine.

    {!replay} reads the directory's checkpoint, scans the log, repairs
    it (drops a torn tail, and everything after a corrupt frame, from
    the file), rebuilds the checkpointed instance and re-executes every
    log record above the checkpoint generation through
    [Iq.Engine.apply_mutation] — the same validated code paths the
    original mutations took. The recovered engine is byte-identical to
    a fresh engine fed the durable mutation prefix: same generation,
    same hit counts, same search results.

    Damage never surfaces as a raw exception: a torn tail is expected
    after a mid-append crash and is reported in the {!report}; a
    mid-log checksum failure recovers everything before it and reports
    [Iq.Engine.Error.Wal_corrupt] with the byte offset. Only a missing
    or unreadable checkpoint fails recovery outright. *)

type report = {
  r_checkpoint_generation : int;  (** generation the checkpoint was taken at *)
  r_replayed : int;  (** log records re-executed *)
  r_skipped : int;
      (** records at or below the checkpoint generation — left by a
          crash between checkpoint publish and log reset; skipping
          them is the double-apply guard *)
  r_torn_at : int option;  (** partial final frame dropped at this offset *)
  r_corrupt : Iq.Engine.Error.t option;
      (** [Wal_corrupt] when a complete frame failed its checksum; the
          intact prefix was still recovered *)
  r_wal_bytes : int;  (** log bytes retained after repair *)
}

val pp_report : Format.formatter -> report -> unit

val replay :
  ?backend:Iq.Engine.backend ->
  ?resilience:Iq.Engine.resilience ->
  ?prune:bool ->
  ?pool:Parallel.pool ->
  string ->
  (Iq.Engine.t * report, Iq.Engine.Error.t) result
(** Recover from a durable directory. The engine options mirror
    [Iq.Engine.create] (they configure the rebuilt engine; they are
    not persisted state): [prune] (default [true]) evaluates through
    the reach band, [~prune:false] through the paper's Algorithm 2,
    with identical answers. Reattach durability afterwards with
    [Store.attach ~replayed_records:report.r_replayed] — replay itself
    leaves the directory closed. *)
