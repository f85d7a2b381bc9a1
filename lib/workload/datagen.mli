(** Object dataset generators.

    IN / CO / AC follow the synthetic families of the skyline paper
    [Börzsönyi et al. 01] the experiments cite: independent uniform,
    correlated, and anti-correlated attributes, all in [0,1]^d.
    VEHICLE and HOUSE are the documented stand-ins for the paper's
    real-world datasets (see DESIGN.md, substitutions). *)

type kind = Independent | Correlated | Anticorrelated

val generate : Rng.t -> kind -> n:int -> d:int -> Geom.Vec.t array
(** [n] objects with [d] attributes in [0,1]. *)

val vehicle : Rng.t -> ?n:int -> unit -> Geom.Vec.t array
(** Synthetic stand-in for the fueleconomy.gov VEHICLE dataset: [n]
    (default 37051) vehicles with 5 correlated attributes
    (year, weight, horsepower, MPG, annual cost), normalized to [0,1]. *)

val house : Rng.t -> ?n:int -> unit -> Geom.Vec.t array
(** Synthetic stand-in for the IPUMS HOUSE dataset: [n] (default
    100000) households with 4 attributes (house value, income, persons,
    mortgage), normalized to [0,1]. *)

val vehicle_table : Rng.t -> ?n:int -> unit -> Relation.Table.t
(** The VEHICLE stand-in as a relational table (named columns), for the
    SQL-integration examples. *)

val kind_name : kind -> string
