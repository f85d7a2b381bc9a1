(** Library log source ("iq"). All core modules report through it;
    silence or enable it with [Logs.Src.set_level src]. Messages use
    the usual [Logs] continuation style:
    [Iq.Log.debug (fun m -> m "evaluated %d candidates" n)]. *)

val debug : 'a Logs.log
val info : 'a Logs.log
val warn : 'a Logs.log
