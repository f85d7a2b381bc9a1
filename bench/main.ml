(* Benchmark harness entry point. With no arguments, reproduces every
   table and figure of the paper's evaluation (Section 6.3) at
   REPRO_SCALE of the published sizes, then the domain-pool speedup
   table and the Bechamel micro-benchmarks. Pass --bench
   f4|f5|f6|f7|f8|f9|f10|f11|f12|f13|exhaustive|ablations|parallel|micro
   to run one. End-to-end serving timings live in perfbench/. *)

let benches =
  [
    ("f4", Figures.f4);
    ("f5", Figures.f5);
    ("f6", Figures.f6);
    ("f7", Figures.f7);
    ("f8", Figures.f8);
    ("f9", Figures.f9);
    ("f10", Figures.f10);
    ("f11", Figures.f11);
    ("f12", Figures.f12);
    ("f13", Figures.f13);
    ("exhaustive", Figures.exhaustive);
    ("ablations", Ablations.run_all);
    ("parallel", Parallel_bench.run);
    ("micro", Micro.run);
  ]

let usage () =
  print_endline "usage: main.exe [--bench NAME]";
  print_endline "available benches:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) benches;
  exit 1

let () =
  Harness.print_setup ();
  match Array.to_list Sys.argv with
  | [ _ ] -> List.iter (fun (_, f) -> f ()) benches
  | [ _; "--bench"; name ] -> (
      match List.assoc_opt name benches with
      | Some f -> f ()
      | None ->
          Printf.printf "unknown bench: %s\n" name;
          usage ())
  | _ -> usage ()
