(* Machine-speed probe.

   A fixed kernel timed between requests: top-k style scoring (dot
   products over a small float slab, a comparison per score, a few
   boxed floats allocated), the same kind of work the program does, on
   data that stays in the L1 cache like the benchmark's working set.
   On a shared virtual machine the effective CPU speed drifts by up to
   1.7x within seconds (a 2-vCPU Xeon guest, measured with this kernel
   and with a plain Python loop alike). The probes record that drift as
   it happens, so each request's measured time can be scaled to the
   speed at which the kernel takes [reference_ns]: a request that ran
   while the probes took twice as long counts half its measured time.
   The kernel is the benchmark's own code, so a change to the program
   cannot move it. *)

(* The kernel's time at the full speed of the 2-vCPU Xeon guest the
   benchmark was tuned on. *)
let reference_ns = 22_000.

(* Probes within this distance of an interval set its speed. *)
let window_ns = 250_000_000

let dim = 3

let n_points = 256

let points = Array.init (n_points * dim) (fun i -> float_of_int ((i * 7919) land 1023) /. 1024.)

let weights = Array.init (32 * dim) (fun i -> float_of_int ((i * 104_729) land 255) /. 256.)

(* For each of 32 weight vectors, count the points scoring below a
   moving threshold and keep the running best few scores boxed in a
   list. *)
let kernel () =
  let hits = ref 0 and best = ref [] in
  for q = 0 to (Array.length weights / dim) - 1 do
    let w0 = weights.(q * dim) and w1 = weights.((q * dim) + 1) and w2 = weights.((q * dim) + 2) in
    let threshold = ref 1.0 in
    for i = 0 to n_points - 1 do
      let o = i * dim in
      let s = (w0 *. points.(o)) +. (w1 *. points.(o + 1)) +. (w2 *. points.(o + 2)) in
      if s < !threshold then begin
        incr hits;
        threshold := (!threshold +. s) *. 0.5;
        best := s :: (match !best with _ :: _ :: _ :: _ :: rest -> rest | l -> l)
      end
    done
  done;
  ignore (Sys.opaque_identity (!hits, !best) : int * float list)

(* (start, duration) of every probe since the last [reset], newest
   first. *)
let probes : (int * int) list ref = ref []

let reset () = probes := []

let probe () =
  let t0 = Spans.now_ns () in
  kernel ();
  probes := (t0, Spans.now_ns () - t0) :: !probes

let probe_n n =
  for _ = 1 to n do
    probe ()
  done

let median_int a =
  let a = Array.copy a in
  Array.sort compare a;
  float_of_int a.(Array.length a / 2)

let median_probe () = median_int (Array.of_list (List.map snd !probes))

(* Each interval [(t0, t1)] (ordered by start) in nanoseconds at
   reference speed: its measured length times [reference_ns] over the
   median probe taken within [window_ns] of it. *)
let scaled intervals =
  let ps = Array.of_list (List.rev !probes) in
  let n = Array.length ps in
  let lo = ref 0 in
  List.map
    (fun (t0, t1) ->
      while !lo < n && fst ps.(!lo) < t0 - window_ns do
        incr lo
      done;
      let hi = ref !lo in
      while !hi < n && fst ps.(!hi) <= t1 + window_ns do
        incr hi
      done;
      let local =
        if !hi = !lo then nan
        else median_int (Array.init (!hi - !lo) (fun i -> snd ps.(!lo + i)))
      in
      float_of_int (t1 - t0) *. reference_ns /. local)
    intervals
