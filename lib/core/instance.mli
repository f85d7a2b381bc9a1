(** A problem instance: objects interpreted as functions plus the
    top-k query workload.

    Everything downstream works in the {e feature space} of the chosen
    utility family. For linear utilities the feature space is the raw
    attribute space and strategies coincide with the paper's Definition
    1 exactly; for Section 5.2 utilities the instance stores each
    object's variable-substituted image and strategies adjust that
    image (see {!Nonlinear} for mapping such strategies back to raw
    attribute adjustments when the map is invertible). [Desc]-order
    workloads are normalized to the minimizing convention by negating
    weights at construction. *)

open Geom

type t = private {
  raw : Vec.t array;  (** original object attributes *)
  features : Vec.t array;
      (** [utility.features] image; the functions. When the feature map
          returns every row itself (linear utilities) this is the very
          array [raw] is, and updates keep the two shared. *)
  flat : Flat.t;
      (** SoA view of [features], kept in sync through every functional
          update (mutations patch the slab rather than rebuild) *)
  utility : Topk.Utility.t;
  order : Topk.Utility.order;
  queries : Topk.Query.t array;  (** weights in feature space, minimizing *)
  qflat : Flat.t;  (** SoA view of the query weight vectors *)
}

val create :
  ?utility:Topk.Utility.t ->
  ?order:Topk.Utility.order ->
  data:Vec.t array ->
  queries:Topk.Query.t list ->
  unit ->
  t
(** [utility] defaults to linear over the data's arity; [order] to
    [Asc]. Query weights must live in the utility's feature space.
    @raise Invalid_argument on arity mismatches or empty data. *)

val n_objects : t -> int

val n_queries : t -> int

val dim : t -> int
(** Feature-space dimension (the space strategies live in). *)

val dim_raw : t -> int

val max_k : t -> int

val score : t -> q:int -> int -> float
(** Score of object [id] under query [q] (minimizing convention). *)

val improved : t -> target:int -> s:Strategy.t -> Vec.t
(** The target's feature vector after applying a feature-space
    strategy. *)

val with_feature : t -> target:int -> Vec.t -> t
(** A copy of the instance where [target]'s feature vector is replaced —
    used by baselines that re-evaluate from scratch. The [raw] entry is
    replaced too when the utility is linear, left unchanged otherwise. *)

val query_points : t -> Vec.t array
(** Query weight vectors as points of the function domain. *)

(** {2 Dataset maintenance (Section 4.3 support)} *)

val add_query : t -> Topk.Query.t -> t
(** Append a query (weights in the utility's feature space; the
    instance's order convention is applied). Existing query indices are
    unchanged; the new query gets index [n_queries]. *)

val remove_query : t -> int -> t
(** Remove the query at an index; later queries shift down by one. *)

val add_object : t -> Vec.t -> t
(** Append an object given by raw attributes; it gets id [n_objects]. *)

val update_object : t -> int -> Vec.t -> t
(** Replace object [id]'s raw attributes in place (its feature image is
    recomputed); the id and every other object are unchanged. *)

val remove_object : t -> int -> t
(** Remove an object id; later ids shift down by one. *)
