type kind = Independent | Correlated | Anticorrelated

let clamp01 x = Float.min 1. (Float.max 0. x)

let independent rng ~n ~d =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.uniform rng))

(* Correlated: attributes cluster around a shared base value. *)
let correlated rng ~n ~d =
  Array.init n (fun _ ->
      let base = Rng.uniform rng in
      Array.init d (fun _ ->
          clamp01 (base +. Rng.gaussian rng ~mean:0. ~stddev:0.08)))

(* Anti-correlated: points jitter around the plane sum(x) = d/2, so a
   good value on one attribute is paid for on the others. *)
let anticorrelated rng ~n ~d =
  Array.init n (fun _ ->
      let v = Array.init d (fun _ -> Rng.uniform rng) in
      let sum = Array.fold_left ( +. ) 0. v in
      let target =
        (float_of_int d /. 2.) +. Rng.gaussian rng ~mean:0. ~stddev:0.1
      in
      let shift = (target -. sum) /. float_of_int d in
      Array.map (fun x -> clamp01 (x +. shift)) v)

let generate rng kind ~n ~d =
  if n < 0 || d < 1 then invalid_arg "Datagen.generate: bad n or d";
  match kind with
  | Independent -> independent rng ~n ~d
  | Correlated -> correlated rng ~n ~d
  | Anticorrelated -> anticorrelated rng ~n ~d

(* VEHICLE stand-in: year uniform; weight log-normal-ish; horsepower
   positively correlated with weight; MPG negatively correlated with
   weight and horsepower; annual cost grows with weight and falls with
   MPG. All normalized to [0,1]; lower = better after normalization is
   NOT imposed here — the utility weights decide. *)
let vehicle rng ?(n = 37051) () =
  Array.init n (fun _ ->
      let year = Rng.uniform rng in
      let weight = clamp01 (Rng.gaussian rng ~mean:0.5 ~stddev:0.18) in
      let hp =
        clamp01 ((0.7 *. weight) +. Rng.gaussian rng ~mean:0.15 ~stddev:0.1)
      in
      let mpg =
        clamp01
          (0.9 -. (0.5 *. weight) -. (0.2 *. hp)
          +. Rng.gaussian rng ~mean:0. ~stddev:0.08)
      in
      let cost =
        clamp01
          ((0.5 *. weight) +. (0.3 *. (1. -. mpg))
          +. Rng.gaussian rng ~mean:0.1 ~stddev:0.07)
      in
      [| year; weight; hp; mpg; cost |])

(* HOUSE stand-in: value / income / persons / mortgage with positive
   value-income-mortgage correlation and weak persons correlation. *)
let house rng ?(n = 100000) () =
  Array.init n (fun _ ->
      let income = clamp01 (Rng.exponential rng ~rate:3.5) in
      let value =
        clamp01 ((0.8 *. income) +. Rng.gaussian rng ~mean:0.1 ~stddev:0.1)
      in
      let persons = clamp01 (Rng.gaussian rng ~mean:0.4 ~stddev:0.2) in
      let mortgage =
        clamp01 ((0.6 *. value) +. Rng.gaussian rng ~mean:0.05 ~stddev:0.08)
      in
      [| value; income; persons; mortgage |])

let table_of points names =
  let open Relation in
  let schema =
    Schema.make
      (List.map (fun name -> { Schema.name; ty = Value.TFloat }) names)
  in
  let t = Table.create schema in
  Array.iter
    (fun p -> Table.insert t (Array.map (fun x -> Value.Float x) p))
    points;
  t

let vehicle_table rng ?n () =
  table_of (vehicle rng ?n ()) [ "year"; "weight"; "horsepower"; "mpg"; "annual_cost" ]

let kind_name = function
  | Independent -> "IN"
  | Correlated -> "CO"
  | Anticorrelated -> "AC"
