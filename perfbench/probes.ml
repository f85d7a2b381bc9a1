(* Instrumentation installed from outside the program, through its
   public hooks: a tracing evaluation backend, a tracing journal, and
   an explicit evaluator lookup. Each records spans (see [Spans]) and
   makes exactly the calls the untraced path makes, so answers do not
   change. *)

(* Counters over the ESE states the traced backend prepared, and the
   bytes the traced journal wrote. *)
let prepared = ref 0

let pruned = ref 0

let rivals = ref 0

let wal_bytes = ref []

let checkpoint_bytes = ref []

type counts = {
  c_prepared : int;
  c_pruned : int;
  c_rivals : int;
  c_wal_bytes : int list;
  c_checkpoint_bytes : int list;
}

let reset_counts () =
  prepared := 0;
  pruned := 0;
  rivals := 0;
  wal_bytes := [];
  checkpoint_bytes := []

let counts () =
  {
    c_prepared = !prepared;
    c_pruned = !pruned;
    c_rivals = !rivals;
    c_wal_bytes = !wal_bytes;
    c_checkpoint_bytes = !checkpoint_bytes;
  }

(* Start of the most recent backend prepare: a lookup that built the
   onion spent [lookup start, prepare start] on it. *)
let prepare_t0 = ref 0

(* Efficient-IQ's backend, timed: the prepare is one span, and the
   evaluator's hit count feeds the ESE accumulators. Named like the
   stock backend so the engine builds the same failover chain. *)
module Traced_backend : Iq.Engine.BACKEND = struct
  let name = Iq.Engine.Ese_backend.name

  let prepare ~layers ~index ~pool ~target =
    let (ev, state), sp =
      Spans.span_rec "backend.prepare" (fun () ->
          Iq.Engine.Ese_backend.prepare ~layers ~index ~pool ~target)
    in
    Option.iter (fun (s : Spans.t) -> prepare_t0 := s.t0) sp;
    Option.iter
      (fun st ->
        incr prepared;
        if Iq.Ese.pruned st then incr pruned;
        rivals := !rivals + Iq.Ese.rival_count st)
      state;
    ({ ev with Iq.Evaluator.hit_count = Spans.timed_eval ev.Iq.Evaluator.hit_count }, state)
end

let onion_built engine gen =
  match Iq.Engine.dominance_stats engine with
  | Some (g, _) -> g = gen
  | None -> false

(* The explicit evaluator lookup a traced read makes before its
   request proper. When this lookup is the first on its generation it
   also built the onion; that part is recorded as its own span. *)
let lookup engine snap ~target =
  let gen = Iq.Snapshot.generation snap in
  let had_onion = onion_built engine gen in
  let r, sp =
    Spans.span_rec "engine.lookup" (fun () -> Iq.Engine.evaluator ~snap engine ~target)
  in
  (match sp with
  | Some sp when (not had_onion) && onion_built engine gen ->
      Spans.add ~parent:sp.Spans.id "snapshot.onion" ~t0:sp.Spans.t0 ~t1:!prepare_t0
  | Some _ | None -> ());
  r

(* A durable directory: the stock [Durable.Store] when untraced, the
   traced journal below when traced. *)
type store = { dir : string; detach : unit -> unit }

(* Mutation bookkeeping the traced journal reads: which mutation is in
   flight and when the caller started it. *)
let mutation_kind = ref ""

let mutation_t0 = ref 0

let append_t1 = ref 0

let checkpoint_t0 = ref None

(* [Durable.Store.attach], made of the same calls, with spans: the
   initial checkpoint, then a journal whose append is a
   [Durable.Wal.append] and whose checkpoint is
   [Durable.Checkpoint.write] followed by [Durable.Wal.reset]. The time
   from the mutation call to the append is the copy-on-write successor
   build. *)
let attach_traced ~sync ~every ~dir engine =
  Unix.mkdir dir 0o755;
  let cpath = Durable.Checkpoint.path_in dir in
  let c = Durable.Checkpoint.of_snapshot (Iq.Engine.snapshot engine) in
  let (_ : int) = Durable.Checkpoint.write cpath c in
  let wal = Durable.Wal.open_ ~sync (Durable.Wal.path_in dir) in
  let j_append ~generation m =
    Spans.add ("index.cow." ^ !mutation_kind) ~t0:!mutation_t0 ~t1:(Spans.now_ns ());
    let bytes = Spans.span "wal.append" (fun () -> Durable.Wal.append wal ~generation m) in
    wal_bytes := bytes :: !wal_bytes;
    append_t1 := Spans.now_ns ();
    bytes
  in
  let j_checkpoint snap =
    checkpoint_t0 := Some (Spans.now_ns ());
    Spans.span "checkpoint.write" (fun () ->
        let bytes =
          Durable.Checkpoint.write cpath (Durable.Checkpoint.of_snapshot snap)
        in
        Durable.Wal.reset wal;
        checkpoint_bytes := bytes :: !checkpoint_bytes;
        bytes)
  in
  Iq.Engine.attach_journal ~checkpoint_generation:(Durable.Checkpoint.generation c)
    ~wal_bytes:(Durable.Wal.size wal) engine
    { Iq.Engine.j_append; j_checkpoint; j_every = Some every };
  {
    dir;
    detach =
      (fun () ->
        Iq.Engine.detach_journal engine;
        Durable.Wal.close wal);
  }

let attach_stock ~sync ~every ~dir engine =
  match Durable.Store.attach ~sync ~every ~dir engine with
  | Ok st -> Ok { dir; detach = (fun () -> Durable.Store.detach st) }
  | Error e -> Error e

(* Run one journaled mutation; with tracing on, derive the publish span
   (append exit to return, less any checkpoint that followed it). *)
let mutate ~kind f =
  mutation_kind := kind;
  checkpoint_t0 := None;
  mutation_t0 := Spans.now_ns ();
  let r = f () in
  let t1 = Spans.now_ns () in
  (match r with
  | Ok _ -> Spans.add "engine.publish" ~t0:!append_t1 ~t1:(Option.value ~default:t1 !checkpoint_t0)
  | Error _ -> ());
  r
