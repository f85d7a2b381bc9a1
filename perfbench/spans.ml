(* Request spans for the traced run.

   A span is one call into a layer, timed from the benchmark's side of
   the call: a name, the request it belongs to, the span that caused
   it, and its start and end on the monotonic clock. Spans are kept in
   memory and written out as JSON lines when the run ends. ESE
   evaluations are too many and too short to keep one by one, so they
   are summed into atomic accumulators (evaluations can run on any pool
   domain) and recorded as one aggregate per enclosing span.

   With tracing off, [span] is a flag test and a call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** -1 for a request's root span *)
  t0 : int;
  t1 : int;
}

(* ESE evaluations under one span: how many, and their summed time. *)
type agg = { a_parent : int; a_req : int; count : int; total_ns : int }

let on = ref false

let recorded : t list ref = ref []

let aggs : agg list ref = ref []

let stack : int list ref = ref []

let next_id = ref 0

let request = ref 0

let eval_ns = Atomic.make 0

let eval_count = Atomic.make 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !stack with p :: _ -> p | [] -> -1

(* Record an interval measured elsewhere (derived spans such as the
   onion build, or the copy-on-write phase of a mutation). *)
let add ?(parent = parent ()) name ~t0 ~t1 =
  if !on then
    recorded := { id = fresh_id (); name; req = !request; parent; t0; t1 } :: !recorded

(* Time [f] as span [name], a child of the innermost open span. With
   [~evals:true], the ESE evaluations made inside it are recorded as one
   aggregate child. Returns the span too, so callers can derive
   sub-intervals from its bounds. *)
let span_rec ?(evals = false) name f =
  if not !on then (f (), None)
  else begin
    let id = fresh_id () in
    let parent = parent () in
    stack := id :: !stack;
    let n0 = Atomic.get eval_count and e0 = Atomic.get eval_ns in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      stack := List.tl !stack;
      let s = { id; name; req = !request; parent; t0; t1 } in
      recorded := s :: !recorded;
      (if evals then
         let count = Atomic.get eval_count - n0 in
         if count > 0 then
           aggs :=
             { a_parent = id; a_req = !request; count; total_ns = Atomic.get eval_ns - e0 }
             :: !aggs);
      s
    in
    match f () with
    | r -> (r, Some (finish ()))
    | exception e ->
        ignore (finish () : t);
        raise e
  end

let span ?evals name f = fst (span_rec ?evals name f)

(* Wrap an evaluator's hit count so every call lands in the
   accumulators. Safe from any domain. *)
let timed_eval f s =
  let t0 = now_ns () in
  let r = f s in
  ignore (Atomic.fetch_and_add eval_ns (now_ns () - t0) : int);
  Atomic.incr eval_count;
  r

let spans () = List.rev !recorded

let evals () = List.rev !aggs

let write path ~base =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.req s.parent (s.t0 - base) (s.t1 - base))
    (spans ());
  List.iter
    (fun a ->
      Printf.fprintf oc
        "{\"name\":\"ese.eval\",\"req\":%d,\"parent\":%d,\"count\":%d,\"total_ns\":%d}\n"
        a.a_req a.a_parent a.count a.total_ns)
    (evals ())
