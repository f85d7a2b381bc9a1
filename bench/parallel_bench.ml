(* Domain-pool speedup table: Query_index build and end-to-end
   Min-Cost search at domains = 1/2/4/8 on the scaled Table-2
   workload. domains=1 is the sequential bypass (no domains spawned),
   so its column is the exact pre-parallel-layer behaviour; the other
   columns must return byte-identical strategies (checked here, and
   property-tested in test/test_parallel.ml).

   (This module is not named bench/parallel.ml: that would shadow the
   lib/parallel library module `Parallel` across the whole bench
   executable and make the pool API unreachable.) *)

let domain_counts = [ 1; 2; 4; 8 ]

let make_workload () =
  let cfg = Harness.defaults in
  let n = cfg.Workload.Config.n_objects in
  let m = cfg.Workload.Config.n_queries in
  let d = cfg.Workload.Config.dimension in
  let rng = Harness.rng 4242 in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 50) ~m
      ~d ()
  in
  Iq.Instance.create ~data ~queries ()

(* A few deterministic search targets; per-IQ times are summed so one
   row = one end-to-end "answer these IQs" session. *)
let n_targets = 3
let candidate_cap = Some 24

let search_session engine ~tau =
  let inst = Iq.Engine.instance engine in
  let d = Iq.Instance.dim inst in
  let cost = Iq.Cost.euclidean d in
  List.init n_targets (fun target ->
      match Iq.Engine.min_cost ?candidate_cap engine ~cost ~target ~tau with
      | Ok o -> Some o
      | Error Iq.Engine.Error.Infeasible -> None
      | Error e -> failwith (Iq.Engine.Error.to_string e))

let strategies_equal a b =
  List.for_all2
    (fun (o1 : Iq.Min_cost.outcome option) o2 ->
      match (o1, o2) with
      | None, None -> true
      | Some o1, Some o2 ->
          o1.Iq.Min_cost.strategy = o2.Iq.Min_cost.strategy
          && o1.Iq.Min_cost.total_cost = o2.Iq.Min_cost.total_cost
          && o1.Iq.Min_cost.hits_after = o2.Iq.Min_cost.hits_after
      | _ -> false)
    a b

let run () =
  Harness.header
    "Parallel: Domain-pool speedups (index build & Min-Cost search)";
  Printf.printf
    "host cores: %d recommended domains; IQ_DOMAINS default here: %d\n"
    (Domain.recommended_domain_count ())
    (Workload.Config.domains ());
  let inst = make_workload () in
  let tau = Harness.defaults.Workload.Config.tau in
  Harness.row
    [
      "  domains"; "   build(s)"; " build-spd"; "  search(s)"; "search-spd";
      " identical";
    ];
  let baseline = ref None (* (build_s, search_s, outcomes) at domains=1 *) in
  let rows =
    List.map
      (fun dc ->
        (* domains=1 creates the sequential-bypass pool: no domains are
           spawned and every task runs inline, so that column is the
           exact pre-parallel-layer behaviour. *)
        let pool = Parallel.create ~domains:dc () in
        let build_s, outcomes, search_s =
          Fun.protect
            ~finally:(fun () -> Parallel.shutdown pool)
            (fun () ->
              let engine, build_s =
                Harness.time (fun () ->
                    match Iq.Engine.create ~pool inst with
                    | Ok e -> e
                    | Error e -> failwith (Iq.Engine.Error.to_string e))
              in
              let outcomes, search_s =
                Harness.time (fun () -> search_session engine ~tau)
              in
              (build_s, outcomes, search_s))
        in
        let build_ref, search_ref, outcomes_ref =
          match !baseline with
          | None ->
              baseline := Some (build_s, search_s, outcomes);
              (build_s, search_s, outcomes)
          | Some b -> b
        in
        let identical = strategies_equal outcomes outcomes_ref in
        Harness.row
          [
            Printf.sprintf "%9d" dc;
            Printf.sprintf "%11.3f" build_s;
            Printf.sprintf "%9.2fx" (build_ref /. build_s);
            Printf.sprintf "%11.3f" search_s;
            Printf.sprintf "%9.2fx" (search_ref /. search_s);
            Printf.sprintf "%10s" (if identical then "yes" else "NO");
          ];
        identical)
      domain_counts
  in
  Harness.note
    "domains=1 is the sequential bypass; speedups need as many physical \
     cores (this host recommends %d)"
    (Domain.recommended_domain_count ());
  if not (List.for_all Fun.id rows) then
    failwith "parallel bench: outcomes diverged across domain counts"
