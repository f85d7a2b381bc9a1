(* End-to-end benchmark of the serving stack.

   One closed-loop client drives whole requests through the public
   serving API (Serve.Session, Iq.Engine, Durable.Store/Recovery) on
   one of three workloads, then checks the answers:

     search_in_un  IN objects, UN queries, one generation: each request
                   opens a session, runs Min-Cost or Max-Hit
                   (alternating) on a uniformly drawn target, closes.
     churn_in_un   the same data, journaled; each round is one mutation
                   and two point reads (hits, what-if step) on a
                   16-target hot set, then a timed crash recovery.
     multi_ac_cl   AC objects, CL queries: single-target Min-Cost,
                   Max-Hit, then multi-target Min-Cost and Max-Hit over
                   three targets, in rotation.

   Usage:
     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--domains N]

   With --trace 0 the run reports end-to-end metrics, each request's
   time scaled to a reference machine speed (see Speed). With --trace 1
   it reports per-layer metrics, timed by spans around the calls into
   each layer (see Spans, Probes), and writes the spans to
   .perfbench_out/ as JSON lines. The last line of output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The exit code is 1
   when a correctness check fails and 2 when the run is refused.
   perfbench/README.md describes the workloads and every metric. *)

let ( let* ) = Result.bind

(* {1 Fixed configuration} *)

(* Table 2 at scale 0.01: |D| = 1000, |Q| = 100, tau = 5, d = 3. The
   budget is the paper's beta = 50 in normalized cost units (/100). *)
let table2 = Workload.Config.scaled ~scale:0.01 Workload.Config.default

let n_objects = table2.Workload.Config.n_objects

let n_queries = table2.Workload.Config.n_queries

let dim = table2.Workload.Config.dimension

let k_range = (1, 50)

let tau = table2.Workload.Config.tau

let beta = table2.Workload.Config.beta /. 100.

let candidate_cap = 16

let setup_reps = 9

let warmup_steps = 16

(* The answers digest covers the first this-many timed requests; the
   timed phase always runs at least that far. *)
let digest_requests = 64

let hot_set = 16

let multi_targets = 3

let wal_sync = Durable.Wal.Batch 64

let checkpoint_every = 64

(* Log records left for recovery after the final forced checkpoint;
   fewer than [checkpoint_every], so no automatic checkpoint
   truncates them. *)
let tail_mutations = 48

let recovery_reps = 3

(* Naive ground-truth rechecks per request class. *)
let rechecks_per_class = 3

(* Largest share of traced request time outside every layer span. *)
let untraced_share_bound = 0.05

let default_seed = 1

(* The datasets come from Table 2's seed; --seed draws the request
   streams (targets, mutations, what-if strategies) over them. *)
let data_seed = table2.Workload.Config.seed

(* Spans and the scratch durable directories go here. *)
let out_dir = ".perfbench_out"

(* Seed kept out of tuning, for confirming later claims. *)
let held_out_seed = 2027

let budget = Resilience.Budget.unlimited

let resilience =
  {
    Iq.Engine.retries = 0;
    backoff_ms = 1.;
    circuit_threshold = 3;
    circuit_cooldown_ms = 100.;
    fault = None;
  }

(* The engine reads these from the environment; a run under any of
   them would not measure the pinned configuration. *)
let pinned_env =
  [ "IQ_FAULT"; "IQ_DEADLINE_MS"; "IQ_PRUNE"; "IQ_BACKEND"; "IQ_MAX_SESSIONS"; "IQ_SNAPSHOT_KEEP" ]

type workload = {
  w_name : string;
  objects : Workload.Datagen.kind;
  queries : Workload.Querygen.kind;
  journaled : bool;
  kinds : string list;
      (** request classes: the end-to-end percentiles are taken per
          class, then averaged geometrically *)
  families : (string * string list) list;
      (** the per-kind metrics printed, each over some classes *)
}

let workloads =
  [
    {
      w_name = "search_in_un";
      objects = Independent;
      queries = Uniform;
      journaled = false;
      kinds = [ "min_cost"; "max_hit" ];
      families = [ ("min_cost", [ "min_cost" ]); ("max_hit", [ "max_hit" ]) ];
    };
    {
      w_name = "churn_in_un";
      objects = Independent;
      queries = Uniform;
      journaled = true;
      kinds = [ "hits"; "whatif"; "mutation" ];
      families = [ ("read", [ "hits"; "whatif" ]); ("mutation", [ "mutation" ]) ];
    };
    {
      w_name = "multi_ac_cl";
      objects = Anticorrelated;
      queries = Clustered;
      journaled = false;
      kinds = [ "min_cost"; "max_hit"; "multi_min_cost"; "multi_max_hit" ];
      families =
        [
          ("min_cost", [ "min_cost" ]);
          ("max_hit", [ "max_hit" ]);
          ("multi", [ "multi_min_cost"; "multi_max_hit" ]);
        ];
    };
  ]

(* {1 Small helpers} *)

let now_s () = float_of_int (Spans.now_ns ()) /. 1e9

let sum l = List.fold_left ( +. ) 0. l

let mean l = match l with [] -> 0. | _ -> sum l /. float_of_int (List.length l)

let percentile p l =
  match List.sort compare l with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let h = p *. float_of_int (Array.length a - 1) in
      let lo = int_of_float h in
      let hi = Int.min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = percentile 0.5 l

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* Independent generators of one seed: 0 dataset, 1 search targets,
   2 mutations, 3 hot-set reads. *)
let stream seed k = Workload.Rng.make ((seed * 1_000_003) + k)

let serr e = Serve.Session.Error.to_string e

let eerr e = Iq.Engine.Error.to_string e

let hex_vec v = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") v))

(* {1 Requests}

   A request runs through the serving API and returns its answer (one
   digest line), whether it failed, an optional ground-truth recheck,
   and the search work it reports. *)

type outcome = {
  answer : string;
  failed : bool;
  check : (unit -> bool) option;
  cph : float option;  (** cost per hit, for search answers *)
  work : (int * int) option;  (** single-target (iterations, evaluations) *)
  multi_iterations : int option;
}

let answer ?check ?cph ?work ?multi_iterations answer =
  { answer; failed = false; check; cph; work; multi_iterations }

let failure what msg =
  {
    answer = what ^ " failed: " ^ msg;
    failed = true;
    check = None;
    cph = None;
    work = None;
    multi_iterations = None;
  }

type request = { cls : string; name : string; run : unit -> outcome }

type ctx = { engine : Iq.Engine.t; traced : bool }

let cost = Iq.Cost.euclidean dim

let in_session ctx f =
  match Spans.span "session.open" (fun () -> Serve.Session.open_ ~budget ctx.engine) with
  | Error e -> Error e
  | Ok sess ->
      Fun.protect
        ~finally:(fun () -> Spans.span "session.close" (fun () -> Serve.Session.close sess))
        (fun () -> f sess)

(* The traced run looks the target's evaluator up explicitly, so its
   preparation (and any onion build) is a span of its own. *)
let pre_lookup ctx sess ~target =
  if not ctx.traced then Ok ()
  else
    match Probes.lookup ctx.engine (Serve.Session.snapshot sess) ~target with
    | Ok _ -> Ok ()
    | Error e -> Error (Serve.Session.Error.Engine e)

let pinned_instance sess = Iq.Snapshot.instance (Serve.Session.snapshot sess)

let naive inst target = Iq.Evaluator.naive inst ~target

let min_cost_request ctx target =
  let run () =
    let r =
      in_session ctx (fun sess ->
          let* () = pre_lookup ctx sess ~target in
          match
            Spans.span ~evals:true "search.min_cost" (fun () ->
                Serve.Session.min_cost ~candidate_cap ~budget sess ~cost ~target ~tau)
          with
          | Ok o -> Ok (pinned_instance sess, Some o)
          | Error (Serve.Session.Error.Engine Iq.Engine.Error.Infeasible) ->
              Ok (pinned_instance sess, None)
          | Error e -> Error e)
    in
    match r with
    | Ok (_, None) -> answer (Printf.sprintf "min_cost %d infeasible" target)
    | Ok (inst, Some o) ->
        let open Iq.Min_cost in
        answer
          (Printf.sprintf "min_cost %d %d %d %h %s" target o.hits_after o.iterations
             o.total_cost (hex_vec o.strategy))
          ~check:(fun () -> (naive inst target).Iq.Evaluator.hit_count o.strategy = o.hits_after)
          ?cph:
            (if o.hits_after > 0 then
               Some (o.total_cost /. float_of_int (Int.min tau o.hits_after))
             else None)
          ~work:(o.iterations, o.evaluations)
    | Error e -> failure "min_cost" (serr e)
  in
  { cls = "min_cost"; name = "min_cost"; run }

let max_hit_request ctx target =
  let run () =
    let r =
      in_session ctx (fun sess ->
          let* () = pre_lookup ctx sess ~target in
          let* o =
            Spans.span ~evals:true "search.max_hit" (fun () ->
                Serve.Session.max_hit ~candidate_cap ~budget sess ~cost ~target ~beta)
          in
          Ok (pinned_instance sess, o))
    in
    match r with
    | Ok (inst, o) ->
        let open Iq.Max_hit in
        answer
          (Printf.sprintf "max_hit %d %d %d %h %s" target o.hits_after o.iterations
             o.incremental_cost (hex_vec o.strategy))
          ~check:(fun () -> (naive inst target).Iq.Evaluator.hit_count o.strategy = o.hits_after)
          ?cph:
            (if o.hits_after > 0 then
               Some (o.incremental_cost /. float_of_int o.hits_after)
             else None)
          ~work:(o.iterations, o.evaluations)
    | Error e -> failure "max_hit" (serr e)
  in
  { cls = "max_hit"; name = "max_hit"; run }

(* Union hits recounted with one naive evaluator per target: a query
   counts when any improved target enters its top-k. *)
let naive_union inst strategies =
  let evs = List.map (fun (t, s) -> (naive inst t, s)) strategies in
  let n = ref 0 in
  for q = 0 to Iq.Instance.n_queries inst - 1 do
    if List.exists (fun ((ev : Iq.Evaluator.t), s) -> ev.member ~q s) evs then incr n
  done;
  !n

let multi_request ctx ~min_cost targets =
  let costs = List.map (fun t -> (t, cost)) targets in
  let name = if min_cost then "multi_min_cost" else "multi_max_hit" in
  let run () =
    let r =
      in_session ctx (fun sess ->
          let search () =
            if min_cost then Serve.Session.min_cost_multi ~candidate_cap ~budget sess ~costs ~tau
            else Serve.Session.max_hit_multi ~candidate_cap ~budget sess ~costs ~beta
          in
          let span = if min_cost then "combinatorial.min_cost" else "combinatorial.max_hit" in
          match Spans.span span search with
          | Ok o -> Ok (pinned_instance sess, Some o)
          | Error (Serve.Session.Error.Engine Iq.Engine.Error.Infeasible) ->
              Ok (pinned_instance sess, None)
          | Error e -> Error e)
    in
    let ts = String.concat "," (List.map string_of_int targets) in
    match r with
    | Ok (_, None) -> answer (Printf.sprintf "%s %s infeasible" name ts)
    | Ok (inst, Some o) ->
        let open Iq.Combinatorial in
        answer
          (Printf.sprintf "%s %s %d %d %h %s" name ts o.union_hits_after o.iterations
             o.total_cost
             (String.concat ";" (List.map (fun (_, s) -> hex_vec s) o.strategies)))
          ~check:(fun () -> naive_union inst o.strategies = o.union_hits_after)
          ?cph:
            (if o.union_hits_after > 0 then
               Some (o.total_cost /. float_of_int o.union_hits_after)
             else None)
          ~multi_iterations:o.iterations
    | Error e -> failure name (serr e)
  in
  { cls = name; name; run }

let hits_request ctx target =
  let run () =
    let r =
      in_session ctx (fun sess ->
          let* () = pre_lookup ctx sess ~target in
          let* h = Spans.span "session.hits" (fun () -> Serve.Session.hits sess ~target) in
          Ok (pinned_instance sess, h))
    in
    match r with
    | Ok (inst, h) ->
        answer (Printf.sprintf "hits %d %d" target h)
          ~check:(fun () -> (naive inst target).Iq.Evaluator.base_hits = h)
    | Error e -> failure "hits" (serr e)
  in
  { cls = "hits"; name = "hits"; run }

let whatif_request ctx target s =
  let run () =
    let r =
      in_session ctx (fun sess ->
          let* () = pre_lookup ctx sess ~target in
          let* stmt =
            Spans.span "session.prepare" (fun () -> Serve.Session.prepare sess ~target)
          in
          Fun.protect
            ~finally:(fun () ->
              Spans.span "session.finalize" (fun () -> Serve.Session.finalize stmt))
            (fun () ->
              let* () = Spans.span "session.bind" (fun () -> Serve.Session.bind stmt ~s) in
              match Spans.span ~evals:true "session.step" (fun () -> Serve.Session.step stmt) with
              | Ok (`Row h) -> Ok (pinned_instance sess, h)
              | Ok `Done -> Error Serve.Session.Error.Finalized
              | Error e -> Error e))
    in
    match r with
    | Ok (inst, h) ->
        answer
          (Printf.sprintf "whatif %d %s %d" target (hex_vec s) h)
          ~check:(fun () -> (naive inst target).Iq.Evaluator.hit_count s = h)
    | Error e -> failure "whatif" (serr e)
  in
  { cls = "whatif"; name = "whatif"; run }

(* One journaled mutation, acknowledged when the engine call returns. *)
let mutation_request ctx (m : Iq.Engine.mutation) =
  let e = ctx.engine in
  let kind, call =
    match m with
    | M_update_object { id; raw } ->
        ("update_object", fun () -> Result.map (fun () -> id) (Iq.Engine.update_object e id raw))
    | M_add_object raw -> ("add_object", fun () -> Iq.Engine.add_object e raw)
    | M_remove_object id ->
        ("remove_object", fun () -> Result.map (fun () -> id) (Iq.Engine.remove_object e id))
    | M_add_query q -> ("add_query", fun () -> Iq.Engine.add_query e q)
    | M_remove_query q ->
        ("remove_query", fun () -> Result.map (fun () -> q) (Iq.Engine.remove_query e q))
  in
  let run () =
    match Probes.mutate ~kind call with
    | Ok v -> answer (Printf.sprintf "%s %d gen %d" kind v (Iq.Engine.generation e))
    | Error err -> failure kind (eerr err)
  in
  { cls = "mutation"; name = kind; run }

(* {1 Request streams}

   Each workload is a generator of steps (a step is one or more
   requests run in order). The draws depend only on the seed and on
   state the same seed reproduces, so the answers of a given step are
   the same in every run. *)

let uniform_point rng = Array.init dim (fun _ -> Workload.Rng.uniform rng)

let search_steps ctx ~seed =
  let rng = stream seed 1 in
  let i = ref 0 in
  fun () ->
    let target = Workload.Rng.int rng n_objects in
    let r = if !i mod 2 = 0 then min_cost_request ctx target else max_hit_request ctx target in
    incr i;
    [ r ]

let distinct_targets rng k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let t = Workload.Rng.int rng n_objects in
      if List.mem t acc then go acc else go (t :: acc)
  in
  go []

let multi_steps ctx ~seed =
  let rng = stream seed 1 in
  let i = ref 0 in
  fun () ->
    let r =
      match !i mod 4 with
      | 0 -> min_cost_request ctx (Workload.Rng.int rng n_objects)
      | 1 -> max_hit_request ctx (Workload.Rng.int rng n_objects)
      | 2 -> multi_request ctx ~min_cost:true (distinct_targets rng multi_targets)
      | _ -> multi_request ctx ~min_cost:false (distinct_targets rng multi_targets)
    in
    incr i;
    [ r ]

(* Mutation mix per block of 20: 14 updates, 2 object adds, 2 object
   removes, 1 query add, 1 query remove, shuffled. Adds and removes
   balance, so |D| and |Q| stay level. Removals and updates draw from
   ids at or above [hot_set], so the hot set (ids 0..15) keeps its
   ids. *)
let mutation_block =
  List.concat
    [
      List.init 14 (fun _ -> `Update);
      [ `Add_object; `Add_object; `Remove_object; `Remove_object; `Add_query; `Remove_query ];
    ]

let next_mutation rng engine kind : Iq.Engine.mutation =
  let inst = Iq.Engine.instance engine in
  let n = Iq.Instance.n_objects inst and m = Iq.Instance.n_queries inst in
  let cold () = hot_set + Workload.Rng.int rng (n - hot_set) in
  match kind with
  | `Update ->
      let id = cold () in
      M_update_object { id; raw = uniform_point rng }
  | `Add_object -> M_add_object (uniform_point rng)
  | `Remove_object -> M_remove_object (cold ())
  | `Add_query ->
      let max_k = Iq.Query_index.depth (Iq.Engine.index engine) - 1 in
      let k = Workload.Rng.int_in rng (fst k_range) (Int.min (snd k_range) max_k) in
      M_add_query (Topk.Query.make ~k (uniform_point rng))
  | `Remove_query -> M_remove_query (Workload.Rng.int rng m)

let mutations ctx ~seed =
  let rng = stream seed 2 in
  let pending = ref [] in
  let rec next () =
    match !pending with
    | kind :: rest ->
        pending := rest;
        next_mutation rng ctx.engine kind
    | [] ->
        let block = Array.of_list mutation_block in
        Workload.Rng.shuffle rng block;
        pending := Array.to_list block;
        next ()
  in
  next

let churn_steps ctx ~seed =
  let next_m = mutations ctx ~seed in
  let rng = stream seed 3 in
  fun () ->
    let m = next_m () in
    let t1 = Workload.Rng.int rng hot_set in
    let t2 = Workload.Rng.int rng hot_set in
    let s = Array.init dim (fun _ -> Workload.Rng.uniform_in rng (-0.1) 0.) in
    [ mutation_request ctx m; hits_request ctx t1; whatif_request ctx t2 s ]

(* {1 Setup} *)

let make_instance w ~seed =
  let rng = stream seed 0 in
  let data = Workload.Datagen.generate rng w.objects ~n:n_objects ~d:dim in
  let queries = Workload.Querygen.linear rng w.queries ~k_range ~m:n_queries ~d:dim () in
  Iq.Instance.create ~data ~queries ()

let backend traced : Iq.Engine.backend =
  if traced then (module Probes.Traced_backend) else (module Iq.Engine.Ese_backend)

let create_engine ~traced ~pool inst =
  Spans.span "index.build" (fun () ->
      Iq.Engine.create ~backend:(backend traced) ~resilience ~prune:true ~pool inst)

let attach ~traced ~dir engine =
  Spans.span "store.attach" (fun () ->
      if traced then
        Ok (Probes.attach_traced ~sync:wal_sync ~every:checkpoint_every ~dir engine)
      else Probes.attach_stock ~sync:wal_sync ~every:checkpoint_every ~dir engine)

type served = { ctx : ctx; store : Probes.store option }

let fresh_dir =
  let n = ref 0 in
  fun work ->
    incr n;
    Filename.concat work (Printf.sprintf "store%d" !n)

(* One set-up: build the engine (index build) and, when journaled,
   attach a fresh durable directory (its initial checkpoint). *)
let setup w ~traced ~pool ~work inst =
  let* engine = create_engine ~traced ~pool inst in
  let* store =
    if w.journaled then Result.map Option.some (attach ~traced ~dir:(fresh_dir work) engine)
    else Ok None
  in
  Ok { ctx = { engine; traced }; store }

let teardown s =
  Option.iter
    (fun (st : Probes.store) ->
      st.Probes.detach ();
      rm_rf st.Probes.dir)
    s.store

let steps w ctx ~seed =
  match w.w_name with
  | "churn_in_un" -> churn_steps ctx ~seed
  | "multi_ac_cl" -> multi_steps ctx ~seed
  | _ -> search_steps ctx ~seed

(* {1 Running requests} *)

let exec (r : request) =
  incr Spans.request;
  let t0 = Spans.now_ns () in
  let o = Spans.span ("request." ^ r.name) r.run in
  (o, t0, Spans.now_ns ())

let ms_of t0 t1 = float_of_int (t1 - t0) /. 1e6

type phase = {
  lat : (string * float * float) list;
      (** (class, measured ms, ms at reference speed), every request *)
  wall_s : float;
  attempted : int;
  failed : int;
  digest : string;
  prefix_ms : float list;  (** latencies of the digest's requests *)
  rechecks : (string * (unit -> bool)) list;
  cphs : float list;  (** cost per hit over the digest's requests *)
  work : (int * int) list;
  multi_iters : int list;
  heap_words : int;  (** top heap after the digest's requests *)
}

(* Run steps until at least [min_requests] requests are done and
   [seconds] have passed. *)
let run_phase next ~min_requests ~seconds =
  Speed.reset ();
  Speed.probe ();
  let t_start = now_s () in
  let deadline = t_start +. seconds in
  let buf = Buffer.create 4096 in
  let i = ref 0 in
  let lat = ref [] and rechecks = ref [] and cphs = ref [] in
  let work = ref [] and multi = ref [] and failed = ref 0 and heap_words = ref 0 in
  let per_class = Hashtbl.create 8 in
  while !i < min_requests || now_s () < deadline do
    List.iter
      (fun (r : request) ->
        let o, t0, t1 = exec r in
        Speed.probe ();
        lat := (r.cls, t0, t1) :: !lat;
        if o.failed then incr failed;
        Option.iter (fun w -> work := w :: !work) o.work;
        Option.iter (fun m -> multi := m :: !multi) o.multi_iterations;
        if !i < digest_requests then begin
          Buffer.add_string buf o.answer;
          Buffer.add_char buf '\n';
          Option.iter (fun c -> cphs := c :: !cphs) o.cph;
          let seen = Option.value ~default:0 (Hashtbl.find_opt per_class r.name) in
          match o.check with
          | Some c when seen < rechecks_per_class ->
              Hashtbl.replace per_class r.name (seen + 1);
              rechecks := (r.name ^ ": " ^ o.answer, c) :: !rechecks
          | Some _ | None -> ()
        end;
        incr i;
        if !i = digest_requests then heap_words := (Gc.quick_stat ()).Gc.top_heap_words)
      (next ())
  done;
  let wall_s = now_s () -. t_start in
  let lat = List.rev !lat in
  let scaled = Speed.scaled (List.map (fun (_, t0, t1) -> (t0, t1)) lat) in
  let lat = List.map2 (fun (c, t0, t1) ns -> (c, ms_of t0 t1, ns /. 1e6)) lat scaled in
  {
    lat;
    wall_s;
    attempted = !i;
    failed = !failed;
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    prefix_ms =
      List.filteri (fun i _ -> i < digest_requests) (List.map (fun (_, _, ms) -> ms) lat);
    rechecks = List.rev !rechecks;
    cphs = List.rev !cphs;
    work = !work;
    multi_iters = !multi;
    heap_words = !heap_words;
  }

let warm_up next =
  let t0 = now_s () in
  let n = ref 0 in
  for _ = 1 to warmup_steps do
    List.iter
      (fun r ->
        ignore (exec r : outcome * int * int);
        incr n)
      (next ())
  done;
  (!n, now_s () -. t0)

(* {1 Crash recovery (churn_in_un)}

   Force a checkpoint, apply a fixed tail of further mutations, detach,
   and time [Durable.Recovery.replay] of that tail. The recovered
   engine must reach the writer's generation and give the same hot-set
   hits. *)

type recovery = {
  recovery_s : float;  (** at reference speed *)
  measured_s : float;
  replayed : int;
  problems : string list;
}

let recover served ~next_mutation ~pool =
  let engine = served.ctx.engine in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Iq.Engine.checkpoint engine with
  | Ok () -> ()
  | Error e -> problem "forced checkpoint: %s" (eerr e));
  for _ = 1 to tail_mutations do
    let o, _, _ = exec (mutation_request served.ctx (next_mutation ())) in
    if o.failed then problem "tail mutation: %s" o.answer
  done;
  let store = Option.get served.store in
  store.Probes.detach ();
  let hot e = List.init hot_set (fun target -> Iq.Engine.hits e ~target) in
  let expected = hot engine in
  let times = ref [] and replayed = ref 0 in
  Speed.reset ();
  for _ = 1 to recovery_reps do
    incr Spans.request;
    Speed.probe_n 8;
    let t0 = Spans.now_ns () in
    let r =
      Spans.span "recovery.replay" (fun () ->
          Durable.Recovery.replay ~backend:(module Iq.Engine.Ese_backend) ~resilience
            ~prune:true ~pool store.Probes.dir)
    in
    times := (t0, Spans.now_ns ()) :: !times;
    Speed.probe_n 8;
    match r with
    | Error e -> problem "replay: %s" (eerr e)
    | Ok (recovered, report) ->
        replayed := report.Durable.Recovery.r_replayed;
        if !replayed <> tail_mutations then
          problem "replayed %d records, expected %d" !replayed tail_mutations;
        if Iq.Engine.generation recovered <> Iq.Engine.generation engine then
          problem "replay reached generation %d, writer at %d"
            (Iq.Engine.generation recovered) (Iq.Engine.generation engine);
        if hot recovered <> expected then problem "recovered hot-set hits differ"
  done;
  rm_rf store.Probes.dir;
  let times = List.rev !times in
  {
    recovery_s = median (Speed.scaled times) /. 1e9;
    measured_s = median (List.map (fun (t0, t1) -> float_of_int (t1 - t0)) times) /. 1e9;
    replayed = !replayed;
    problems = List.rev !problems;
  }

(* {1 Per-layer metrics from the spans} *)

let per_layer ~first ~spans ~evals ~phase ~engine ~counters ~(probe : Probes.counts)
    ~setup_build_s ~groups ~gc ~overhead_pct ~recovery =
  let admission_waits, repreparations = counters in
  let timed = List.filter (fun (s : Spans.t) -> s.req >= first) spans in
  let named n = List.filter (fun (s : Spans.t) -> String.equal s.name n) timed in
  let prefixed p =
    List.filter (fun (s : Spans.t) -> String.starts_with ~prefix:p s.name) timed
  in
  let dur (s : Spans.t) = float_of_int (s.t1 - s.t0) in
  let mean_ns l = mean (List.map dur l) in
  let child_ns = Hashtbl.create 1024 in
  let add_child parent ns =
    Hashtbl.replace child_ns parent
      (ns +. Option.value ~default:0. (Hashtbl.find_opt child_ns parent))
  in
  List.iter (fun (s : Spans.t) -> if s.parent >= 0 then add_child s.parent (dur s)) spans;
  let timed_evals = List.filter (fun (a : Spans.agg) -> a.a_req >= first) evals in
  List.iter (fun (a : Spans.agg) -> add_child a.a_parent (float_of_int a.total_ns)) timed_evals;
  let children (s : Spans.t) = Option.value ~default:0. (Hashtbl.find_opt child_ns s.id) in
  let roots =
    List.filter
      (fun (s : Spans.t) -> s.parent < 0 && String.starts_with ~prefix:"request." s.name)
      timed
  in
  let root_ns = sum (List.map dur roots) in
  let uncovered = sum (List.map (fun s -> Float.max 0. (dur s -. children s)) roots) in
  let searches = prefixed "search." in
  let combos = prefixed "combinatorial." in
  let combo_ids = Hashtbl.create 64 in
  List.iter (fun (s : Spans.t) -> Hashtbl.replace combo_ids s.id ()) combos;
  let lookups = List.length (named "engine.lookup") in
  let multi_lookups = multi_targets * List.length combos in
  let prepares = named "backend.prepare" in
  let eval_ns = sum (List.map (fun (a : Spans.agg) -> float_of_int a.total_ns) timed_evals) in
  let eval_n = List.fold_left (fun n (a : Spans.agg) -> n + a.count) 0 timed_evals in
  let iters = List.fold_left (fun n (i, _) -> n + i) 0 phase.work in
  let search_evals = List.fold_left (fun n (_, e) -> n + e) 0 phase.work in
  let n_search = List.length phase.work in
  let n_multi = List.length phase.multi_iters in
  let onions =
    List.filter (fun (s : Spans.t) -> String.equal s.name "snapshot.onion") spans
  in
  let appends = List.map (fun s -> dur s /. 1e3) (named "wal.append") in
  let checkpoints = named "checkpoint.write" in
  let minor, promoted, majors = gc in
  let ops = float_of_int phase.attempted in
  let cow kind = ("index.cow_ms." ^ kind, mean_ns (named ("index.cow." ^ kind)) /. 1e6, "ms") in
  let mean_int l = mean (List.map float_of_int l) in
  let listed =
    [
      ("session.open_us", mean_ns (named "session.open") /. 1e3, "us");
      ("session.admission_waits", float_of_int admission_waits, "count");
      ( "engine.prepare_hit_ratio",
        1. -. ratio (List.length prepares) (lookups + multi_lookups),
        "ratio" );
      ("engine.prepare_cold_ms", mean_ns prepares /. 1e6, "ms");
      ("engine.onion_build_ms", mean_ns onions /. 1e6, "ms");
      ("engine.repreparations", float_of_int repreparations, "count");
      ( "snapshot.onion_layers",
        (match Iq.Engine.dominance_stats engine with
        | Some (_, l) -> float_of_int l
        | None -> 0.),
        "count" );
      ( "snapshot.words",
        float_of_int (Iq.Snapshot.size_words (Iq.Engine.snapshot engine)),
        "words" );
      ("search.iterations_per_iq", ratio iters n_search, "count");
      ("search.evaluations_per_iq", ratio search_evals n_search, "count");
      ("search.evals_per_applied_step", ratio search_evals iters, "count");
      ( "ese.eval_us",
        (if eval_n = 0 then 0. else eval_ns /. float_of_int eval_n /. 1e3),
        "us" );
      ("ese.eval_share", (if root_ns = 0. then 0. else eval_ns /. root_ns), "ratio");
      ("ese.rivals_per_eval", ratio probe.c_rivals probe.c_prepared, "count");
      ("ese.pruned_share", ratio probe.c_pruned probe.c_prepared, "ratio");
      ("combinatorial.iterations_per_iq", mean_int phase.multi_iters, "count");
      ("index.build_s", setup_build_s, "s");
      ("index.groups", float_of_int groups, "count");
      ("wal.bytes_per_mutation", mean_int probe.c_wal_bytes, "bytes");
      ("checkpoint.count", float_of_int (List.length checkpoints), "count");
      ("checkpoint.bytes", mean_int probe.c_checkpoint_bytes, "bytes");
      ("gc.minor_words_per_op", minor /. ops, "words");
      ("gc.promoted_words_per_op", promoted /. ops, "words");
      ("gc.major_collections_per_kop", 1000. *. majors /. ops, "count");
      ("trace.overhead_pct", overhead_pct, "%");
      ("trace.untraced_share", (if root_ns = 0. then 0. else uncovered /. root_ns), "ratio");
    ]
  in
  (* Timings of layers only some workloads reach: printed, not in the
     result JSON, where every metric must be measured on every
     workload. *)
  let search_self = mean (List.map (fun s -> dur s -. children s) searches) /. 1e6 in
  let combo_prepare =
    sum
      (List.map dur
         (List.filter (fun (s : Spans.t) -> Hashtbl.mem combo_ids s.parent) prepares))
  in
  let publish = named "engine.publish" in
  let extra =
    [
      ("search.ms_per_iq", mean_ns searches /. 1e6, "ms");
      ("search.self_ms_per_iq", search_self, "ms");
      ("ese.evaluations", float_of_int eval_n, "count");
      ("combinatorial.ms_per_iq", mean_ns combos /. 1e6, "ms");
      ( "combinatorial.prepare_ms_per_iq",
        (if n_multi = 0 then 0. else combo_prepare /. float_of_int n_multi /. 1e6),
        "ms" );
      cow "update_object";
      cow "add_object";
      cow "remove_object";
      cow "add_query";
      cow "remove_query";
      ("wal.append_us", mean appends, "us");
      ("wal.append_p99_us", (if appends = [] then 0. else percentile 0.99 appends), "us");
      ("checkpoint.ms", mean_ns checkpoints /. 1e6, "ms");
      ("engine.publish_us", mean_ns publish /. 1e3, "us");
      ( "recovery.records_per_s",
        (match recovery with
        | Some r when r.measured_s > 0. -> float_of_int r.replayed /. r.measured_s
        | Some _ | None -> 0.),
        "1/s" );
    ]
  in
  (listed, extra)

(* {1 Output} *)

let print_metric (name, v, unit) = Printf.printf "metric %s %.6g %s\n" name v unit

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    attempted failed body

(* {1 Main} *)

let refuse fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 30 in
  let trace = ref 0 and domains = ref 1 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME search_in_un | churn_in_un | multi_ac_cl");
      ("--seed", Arg.Set_int seed, "N request-stream seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--domains", Arg.Set_int domains, "N engine pool size (default 1, at most nproc)");
    ]
  in
  Arg.parse spec (fun a -> refuse "unexpected argument %s" a) "e2e.exe --workload NAME [options]";
  let w =
    match List.find_opt (fun w -> String.equal w.w_name !workload) workloads with
    | Some w -> w
    | None -> refuse "unknown workload %S" !workload
  in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env with
  | [] -> ()
  | set -> refuse "refusing to run with %s set" (String.concat ", " set));
  if !seconds < 1 then refuse "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then refuse "--trace must be 0 or 1";
  let nproc = Domain.recommended_domain_count () in
  if !domains < 1 || !domains > nproc then refuse "--domains must be in 1..%d" nproc;
  let traced = !trace = 1 in
  let seed = !seed in
  let pool = Parallel.create ~domains:!domains () in
  let work = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  mkdir_p work;
  Printf.printf "perfbench e2e: workload=%s seed=%d trace=%d\n" w.w_name seed !trace;
  Printf.printf
    "config: held_out_seed=%d data_seed=%d objects=%s queries=%s n_objects=%d \
     n_queries=%d dim=%d k=%d..%d tau=%d beta=%g candidate_cap=%d backend=ese prune=true \
     fault=none budget=unlimited pool_domains=%d nproc=%d ocaml=%s wal_sync=batch:64 \
     checkpoint_every=%d setup_reps=%d warmup_steps=%d digest_requests=%d\n%!"
    held_out_seed data_seed
    (Workload.Datagen.kind_name w.objects)
    (Workload.Querygen.kind_name w.queries)
    n_objects n_queries dim (fst k_range) (snd k_range) tau beta candidate_cap
    (Parallel.domains pool) nproc Sys.ocaml_version checkpoint_every setup_reps warmup_steps
    digest_requests;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let die_on = function Ok v -> v | Error e -> refuse "setup failed: %s" (eerr e) in
  let inst = make_instance w ~seed:data_seed in
  let run_base = Spans.now_ns () in
  Spans.on := traced;
  (* Set-up, several times between speed probes; the last one serves. *)
  Speed.reset ();
  let setups =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        Speed.probe_n 8;
        let t0 = Spans.now_ns () in
        let s = die_on (setup w ~traced ~pool ~work inst) in
        let t1 = Spans.now_ns () in
        Speed.probe_n 8;
        (s, (t0, t1)))
  in
  let served = fst (List.nth setups (setup_reps - 1)) in
  List.iteri (fun i (s, _) -> if i < setup_reps - 1 then teardown s) setups;
  let setup_times = List.map snd setups in
  let setup_s = median (Speed.scaled setup_times) /. 1e9 in
  let measured_setup_s =
    median (List.map (fun (t0, t1) -> float_of_int (t1 - t0)) setup_times) /. 1e9
  in
  let index0 = Iq.Engine.index served.ctx.engine in
  let setup_build_s = Iq.Query_index.build_seconds index0 in
  let groups = Iq.Query_index.n_groups index0 in
  let next = steps w served.ctx ~seed in
  let warm_n, warm_s = warm_up next in
  Printf.printf "warmup: requests=%d seconds=%.3f (excluded)\n%!" warm_n warm_s;
  Gc.compact ();
  let first = !Spans.request + 1 in
  Probes.reset_counts ();
  let stats0 = Iq.Engine.stats served.ctx.engine in
  let gc0 = Gc.quick_stat () in
  let phase =
    run_phase next ~min_requests:digest_requests ~seconds:(float_of_int !seconds)
  in
  let gc1 = Gc.quick_stat () in
  let stats1 = Iq.Engine.stats served.ctx.engine in
  let probe = Probes.counts () in
  let probe_median = Speed.median_probe () in
  let spans_timed = Spans.spans () and evals_timed = Spans.evals () in
  let recovery =
    if w.journaled then begin
      let tail = mutations served.ctx ~seed:(seed + 1) in
      let r = recover served ~next_mutation:tail ~pool in
      List.iter (fun p -> problem "recovery: %s" p) r.problems;
      Some r
    end
    else begin
      teardown served;
      None
    end
  in
  (* Traced runs also replay the digest's requests untraced on a fresh
     set-up: the answers must match, and the paired latencies (at
     reference speed) give the tracing overhead. *)
  let overhead_pct =
    if not traced then 0.
    else begin
      Spans.on := false;
      let ref_served = die_on (setup w ~traced:false ~pool ~work inst) in
      let ref_next = steps w ref_served.ctx ~seed in
      ignore (warm_up ref_next : int * float);
      Gc.compact ();
      let ref_phase = run_phase ref_next ~min_requests:digest_requests ~seconds:0. in
      teardown ref_served;
      if not (String.equal ref_phase.digest phase.digest) then
        problem "traced digest %s differs from untraced %s" phase.digest ref_phase.digest;
      let traced_ms = sum phase.prefix_ms and plain_ms = sum ref_phase.prefix_ms in
      100. *. (traced_ms -. plain_ms) /. plain_ms
    end
  in
  List.iter
    (fun (what, check) -> if not (check ()) then problem "naive recheck failed: %s" what)
    phase.rechecks;
  let select f c =
    List.filter_map (fun (k, m, s) -> if String.equal k c then Some (f m s) else None) phase.lat
  in
  let scaled = select (fun _ s -> s) and measured = select (fun m _ -> m) in
  (* A percentile taken per request class, then the geometric mean over
     the workload's classes: each class weighs the same however fast it
     is, and no percentile falls between two classes' latency modes. *)
  let over_kinds samples p =
    exp (mean (List.map (fun k -> log (percentile p (samples k))) w.kinds))
  in
  let total_s f = sum (List.map f phase.lat) /. 1000. in
  let ops_per_s = float_of_int phase.attempted /. total_s (fun (_, _, s) -> s) in
  let heap_peak_mb = float_of_int (phase.heap_words * (Sys.word_size / 8)) /. 1048576. in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", ops_per_s, "1/s");
      ("p50_ms", over_kinds scaled 0.5, "ms");
      ("p90_ms", over_kinds scaled 0.9, "ms");
      ("heap_peak_mb", heap_peak_mb, "MiB");
    ]
  in
  let as_measured =
    [
      ("measured.setup_s", measured_setup_s, "s");
      ("measured.ops_per_s", float_of_int phase.attempted /. phase.wall_s, "1/s");
      ("measured.p50_ms", over_kinds measured 0.5, "ms");
      ("measured.p90_ms", over_kinds measured 0.9, "ms");
      ("speed.probe_median_ns", probe_median, "ns");
      ("speed.reference_ns", Speed.reference_ns, "ns");
    ]
  in
  (* The per-kind metrics of this workload, at reference speed, with
     the highest tail its sample count supports (p99 needs 1000). *)
  let tail name samples =
    let n = List.length samples in
    let p, label = if n >= 1000 then (0.99, "p99") else (0.9, "p90") in
    [
      (name ^ "_p50_ms", median samples, "ms");
      (Printf.sprintf "%s_%s_ms" name label, percentile p samples, "ms");
      (name ^ "_samples", float_of_int n, "count");
    ]
  in
  let kinds =
    List.concat_map (fun (name, classes) -> tail name (List.concat_map scaled classes)) w.families
    @
    match recovery with
    | Some r -> [ ("recovery_s", r.recovery_s, "s") ]
    | None -> [ ("cost_per_hit", mean phase.cphs, "cost") ]
  in
  let fail_rate = ratio phase.failed phase.attempted in
  let gc =
    ( gc1.Gc.minor_words -. gc0.Gc.minor_words,
      gc1.Gc.promoted_words -. gc0.Gc.promoted_words,
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) )
  in
  let counters =
    ( stats1.Iq.Engine.admission_rejections - stats0.Iq.Engine.admission_rejections,
      stats1.Iq.Engine.repreparations - stats0.Iq.Engine.repreparations )
  in
  let layer =
    if not traced then None
    else begin
      let listed, extra =
        per_layer ~first ~spans:spans_timed ~evals:evals_timed ~phase ~engine:served.ctx.engine
          ~counters ~probe ~setup_build_s ~groups ~gc ~overhead_pct ~recovery
      in
      let path =
        Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.w_name seed)
      in
      Spans.write path ~base:run_base;
      Printf.printf "spans: %s\n" path;
      Some (listed, extra)
    end
  in
  rm_rf work;
  Parallel.shutdown pool;
  List.iter print_metric end_to_end;
  List.iter print_metric kinds;
  print_metric ("fail_rate", fail_rate, "ratio");
  List.iter print_metric as_measured;
  Option.iter
    (fun (listed, extra) ->
      List.iter print_metric listed;
      List.iter print_metric extra;
      match List.find_opt (fun (n, _, _) -> String.equal n "trace.untraced_share") listed with
      | Some (_, share, _) when share > untraced_share_bound ->
          problem "trace.untraced_share %.4f exceeds the bound %.2f" share untraced_share_bound
      | Some _ | None -> ())
    layer;
  Printf.printf "digest: %s (first %d requests)\n" phase.digest digest_requests;
  let metrics = match layer with Some (listed, _) -> listed | None -> end_to_end in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then problem "metric %s is not finite" n)
    metrics;
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) problems;
  if problems = [] then
    Printf.printf "checks: %d naive rechecks%s%s passed\n" (List.length phase.rechecks)
      (if traced then ", traced = untraced answers" else "")
      (if w.journaled then ", recovery" else "");
  print_result ~correct:(problems = []) ~attempted:phase.attempted ~failed:phase.failed metrics;
  exit (if problems = [] then 0 else 1)
