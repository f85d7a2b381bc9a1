type t = {
  n_objects : int;
  n_queries : int;
  tau : int;
  beta : float;
  dimension : int;
  seed : int;
}

let default =
  {
    n_objects = 100_000;
    n_queries = 10_000;
    tau = 250;
    beta = 50.;
    dimension = 3;
    seed = 42;
  }

let scale () =
  match Sys.getenv_opt "REPRO_SCALE" with
  | None -> 0.05
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0. -> Float.min 1. f
      | _ -> 0.05)

let domains () = Parallel.default_domains ()

let backend () =
  match Sys.getenv_opt "IQ_BACKEND" with
  | None | Some "" -> "ese"
  | Some s -> String.lowercase_ascii s

let deadline_ms () =
  match Sys.getenv_opt "IQ_DEADLINE_MS" with
  | None | Some "" -> None
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some ms when ms > 0. -> Some ms
      | Some _ | None -> None)

let retries () =
  match Sys.getenv_opt "IQ_RETRIES" with
  | None | Some "" -> 2
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | Some _ | None -> 2)

let fault () =
  match Sys.getenv_opt "IQ_FAULT" with
  | None | Some "" -> None
  | Some s -> Some s

let max_sessions () =
  match Sys.getenv_opt "IQ_MAX_SESSIONS" with
  | None | Some "" -> 8
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | Some _ | None -> 8)

let wal_sync () =
  match Sys.getenv_opt "IQ_WAL_SYNC" with
  | None | Some "" -> "batch"
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | ("always" | "batch" | "off") as m -> m
      | _ -> "batch")

let checkpoint_every () =
  match Sys.getenv_opt "IQ_CHECKPOINT_EVERY" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> Some n
      | Some _ | None -> None)

let scaled ?scale:(s = scale ()) t =
  let scale_int min_v v =
    Int.max min_v (int_of_float (float_of_int v *. s))
  in
  {
    t with
    n_objects = scale_int 100 t.n_objects;
    n_queries = scale_int 50 t.n_queries;
    tau = scale_int 5 t.tau;
  }

let object_sweep t =
  ignore t;
  [ 50_000; 100_000; 150_000; 200_000 ]

let query_sweep t =
  ignore t;
  [ 5_000; 10_000; 15_000 ]

let dimension_sweep = [ 1; 2; 3; 4; 5 ]

let pp ppf t =
  Format.fprintf ppf
    "{|D|=%d; |Q|=%d; tau=%d; beta=%g; dim=%d; seed=%d}"
    t.n_objects t.n_queries t.tau t.beta t.dimension t.seed
