(* Shared benchmark plumbing: timing, table printing, scale handling. *)

let scale = Workload.Config.scale ()

let scaled_int v = Int.max 1 (int_of_float (float_of_int v *. scale))

(* The serving facade every bench runs its searches through, on the
   shared pool sized by IQ_DOMAINS (sequential bypass when that
   resolves to 1). *)
let engine inst = Iq.Engine.create_exn ~pool:(Parallel.default ()) inst

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let time_only f = snd (time f)

let header title =
  Printf.printf "\n=== %s ===\n" title

let row cells = print_endline (String.concat "  " cells)

let cell_f width v = Printf.sprintf "%*.*f" width 3 v

let cell_s width s = Printf.sprintf "%*s" width s

let note fmt = Printf.ksprintf (fun s -> Printf.printf "    (%s)\n" s) fmt

(* Paper default parameters (Table 2), pre-scaled. *)
let defaults = Workload.Config.scaled Workload.Config.default

let print_setup () =
  Printf.printf
    "Improvement Queries benchmark suite (EDBT 2017 reproduction)\n";
  Printf.printf "REPRO_SCALE=%.3g: paper sizes are scaled by this factor.\n"
    scale;
  Format.printf "Scaled Table-2 defaults: %a@." Workload.Config.pp defaults;
  Printf.printf
    "Budgets: the paper's beta=50 is in its cost units; normalized \
     [0,1]-attribute Euclidean costs make beta_eff = beta/100 the \
     equivalent binding budget here.\n"

let beta_eff beta_paper = beta_paper /. 100.

(* Deterministic per-bench RNG. *)
let rng seed = Workload.Rng.make (seed + 7919)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
