(* The glue: a durable directory attached to a live engine. [attach]
   guarantees the directory always has a complete checkpoint (writing
   an initial one if needed), opens the log for appending, and installs
   the engine journal — from then on every acknowledged mutation is on
   disk before it is published, and checkpoints truncate the log. *)

type t = { dir : string; wal : Wal.t; engine : Iq.Engine.t }

let dir t = t.dir

let wal t = t.wal

let engine t = t.engine

let mkdir_p dir =
  let rec mk d =
    if not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let attach ?sync ?every ?fault ?(replayed_records = 0) ~dir engine =
  let sync = match sync with Some s -> s | None -> Wal.sync_of_config () in
  let every =
    match every with Some _ -> every | None -> Workload.Config.checkpoint_every ()
  in
  let resolve_fault () =
    match fault with
    | Some _ -> Ok fault
    | None -> (
        match Resilience.Fault.of_env () with
        | Ok f -> Ok f
        | Error msg ->
            Error
              (Iq.Engine.Error.Fault_spec
                 {
                   spec = Option.value ~default:"" (Workload.Config.fault ());
                   msg;
                 }))
  in
  match
    Result.bind (Checkpoint.check (Iq.Engine.snapshot engine)) resolve_fault
  with
  | Error e -> Error e
  | Ok fault -> (
      try
        mkdir_p dir;
        let cpath = Checkpoint.path_in dir in
        let ckpt_gen =
          if Sys.file_exists cpath then
            match Checkpoint.read cpath with
            | Ok c -> Checkpoint.generation c
            | Error msg -> failwith msg
          else begin
            (* a fresh directory gets a checkpoint immediately, so
               recovery never faces a log with no base image *)
            let c = Checkpoint.of_snapshot (Iq.Engine.snapshot engine) in
            let _bytes : int = Checkpoint.write ?fault cpath c in
            Checkpoint.generation c
          end
        in
        let wal = Wal.open_ ~sync ?fault (Wal.path_in dir) in
        let wal_bytes = Wal.size wal in
        let journal =
          {
            Iq.Engine.j_append =
              (fun ~generation m -> Wal.append wal ~generation m);
            j_checkpoint =
              (fun snap ->
                let c = Checkpoint.of_snapshot snap in
                let bytes = Checkpoint.write ?fault cpath c in
                (* checkpoint published; only now may the log shrink —
                   a crash in between leaves already-covered records
                   behind, which replay skips by generation *)
                Wal.reset wal;
                bytes);
            j_every = every;
          }
        in
        Iq.Engine.attach_journal ~replayed_records
          ~checkpoint_generation:ckpt_gen ~wal_bytes engine journal;
        Ok { dir; wal; engine }
      with
      | Resilience.Fault.Injected _ as e ->
          Error (Iq.Engine.Error.Internal (Printexc.to_string e))
      | Resilience.Fault.Torn_write _ as e ->
          Error (Iq.Engine.Error.Internal (Printexc.to_string e))
      | Failure msg | Invalid_argument msg ->
          Error (Iq.Engine.Error.Internal msg)
      | Unix.Unix_error (err, fn, arg) ->
          Error
            (Iq.Engine.Error.Internal
               (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err))))

let checkpoint t = Iq.Engine.checkpoint t.engine

let detach t =
  Iq.Engine.detach_journal t.engine;
  Wal.close t.wal
