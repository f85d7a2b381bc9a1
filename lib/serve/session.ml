module Error = struct
  type t =
    | Engine of Iq.Engine.Error.t
    | Closed
    | Finalized

  let to_string = function
    | Engine e -> Iq.Engine.Error.to_string e
    | Closed -> "session closed"
    | Finalized -> "statement finalized"

  let pp ppf e = Format.pp_print_string ppf (to_string e)
end

let ( let* ) = Result.bind

let emap r = Result.map_error (fun e -> Error.Engine e) r

type t = {
  engine : Iq.Engine.t;
  lock : Mutex.t;  (* guards the lifecycle fields below *)
  mutable snap : Iq.Snapshot.t;
  mutable closed : bool;
  mutable stmts : stmt list;  (* live statements, finalized at close *)
}

and stmt = {
  sess : t;
  st_target : int;
  st_snap : Iq.Snapshot.t;
      (* the statement's own pin: it answers from this generation even
         after the session refreshes past it *)
  st_eval : Iq.Evaluator.t;
  mutable bound : Iq.Strategy.t option;
  mutable pending : bool;  (* a row is still to be delivered *)
  mutable finalized : bool;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let open_ ?deadline_ms ?budget engine =
  match Iq.Engine.acquire_session ?deadline_ms ?budget engine with
  | Error e -> Error (Error.Engine e)
  | Ok snap ->
      Ok { engine; lock = Mutex.create (); snap; closed = false; stmts = [] }

let open_exn ?deadline_ms ?budget engine =
  match open_ ?deadline_ms ?budget engine with
  | Ok t -> t
  | Error e -> invalid_arg ("Session.open_: " ^ Error.to_string e)

let finalize_locked st =
  st.finalized <- true;
  st.bound <- None;
  st.pending <- false

let finalize st =
  with_lock st.sess (fun () ->
      if not st.finalized then begin
        finalize_locked st;
        st.sess.stmts <- List.filter (fun s -> s != st) st.sess.stmts
      end)

(* The admission slot and the pin are released exactly once, on the
   open->closed transition; later closes see [None] and do nothing. *)
let close t =
  let released =
    with_lock t (fun () ->
        if t.closed then None
        else begin
          t.closed <- true;
          List.iter finalize_locked t.stmts;
          t.stmts <- [];
          Some t.snap
        end)
  in
  match released with
  | None -> ()
  | Some snap -> Iq.Engine.release_session t.engine snap

let engine t = t.engine

let snapshot t = with_lock t (fun () -> t.snap)

let generation t = Iq.Snapshot.generation (snapshot t)

let guarded t f =
  let snap = with_lock t (fun () -> if t.closed then None else Some t.snap) in
  match snap with None -> Error Error.Closed | Some snap -> f snap

let refresh t =
  with_lock t (fun () ->
      if t.closed then Error Error.Closed
      else begin
        t.snap <- Iq.Engine.repin t.engine t.snap;
        Ok ()
      end)

let with_session ?deadline_ms ?budget engine f =
  match open_ ?deadline_ms ?budget engine with
  | Error _ as e -> e
  | Ok sess -> Fun.protect ~finally:(fun () -> close sess) (fun () -> f sess)

(* {2 Prepared statements} *)

let prepare t ~target =
  guarded t (fun snap ->
      match Iq.Engine.evaluator ~snap t.engine ~target with
      | Error e -> Error (Error.Engine e)
      | Ok eval ->
          with_lock t (fun () ->
              if t.closed then Error Error.Closed
              else begin
                let st =
                  {
                    sess = t;
                    st_target = target;
                    st_snap = snap;
                    st_eval = eval;
                    bound = None;
                    pending = true;
                    finalized = false;
                  }
                in
                t.stmts <- st :: t.stmts;
                Ok st
              end))

let stmt_state st =
  with_lock st.sess (fun () ->
      if st.sess.closed then Error Error.Closed
      else if st.finalized then Error Error.Finalized
      else Ok ())

let stmt_dim st = Iq.Instance.dim (Iq.Snapshot.instance st.st_snap)

let bind st ~s =
  let* () = stmt_state st in
  let expected = stmt_dim st in
  let got = Geom.Vec.dim s in
  if got <> expected then
    Error (Error.Engine (Iq.Engine.Error.Dim_mismatch { expected; got }))
  else begin
    with_lock st.sess (fun () ->
        st.bound <- Some s;
        st.pending <- true);
    Ok ()
  end

let step st =
  let* () = stmt_state st in
  let row =
    with_lock st.sess (fun () ->
        if st.pending then begin
          st.pending <- false;
          true
        end
        else false)
  in
  if not row then Ok `Done
  else
    let s =
      match st.bound with
      | Some s -> s
      | None -> Iq.Strategy.zero (stmt_dim st)
    in
    (* The evaluator may carry an injected eval fault; like every engine
       read, a raise becomes a typed [Internal] error, never an escape. *)
    match st.st_eval.Iq.Evaluator.hit_count s with
    | hits -> Ok (`Row hits)
    | exception e ->
        Error (Error.Engine (Iq.Engine.Error.Internal (Printexc.to_string e)))

let with_stmt t ~target f =
  match prepare t ~target with
  | Error _ as e -> e
  | Ok st -> Fun.protect ~finally:(fun () -> finalize st) (fun () -> f st)

let stmt_target st = st.st_target

let stmt_generation st = Iq.Snapshot.generation st.st_snap

(* {2 Snapshot-pinned reads} *)

let hits t ~target =
  guarded t (fun snap -> emap (Iq.Engine.hits ~snap t.engine ~target))

let member t ~target ~q =
  guarded t (fun snap -> emap (Iq.Engine.member ~snap t.engine ~target ~q))

let min_cost ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget t
    ~cost ~target ~tau =
  guarded t (fun snap ->
      emap
        (Iq.Engine.min_cost ?limits ?max_iterations ?candidate_cap
           ?deadline_ms ?budget ~snap t.engine ~cost ~target ~tau))

let max_hit ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget t
    ~cost ~target ~beta =
  guarded t (fun snap ->
      emap
        (Iq.Engine.max_hit ?limits ?max_iterations ?candidate_cap ?deadline_ms
           ?budget ~snap t.engine ~cost ~target ~beta))

let min_cost_multi ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget
    t ~costs ~tau =
  guarded t (fun snap ->
      emap
        (Iq.Engine.min_cost_multi ?limits ?max_iterations ?candidate_cap
           ?deadline_ms ?budget ~snap t.engine ~costs ~tau))

let max_hit_multi ?limits ?max_iterations ?candidate_cap ?deadline_ms ?budget
    t ~costs ~beta =
  guarded t (fun snap ->
      emap
        (Iq.Engine.max_hit_multi ?limits ?max_iterations ?candidate_cap
           ?deadline_ms ?budget ~snap t.engine ~costs ~beta))
