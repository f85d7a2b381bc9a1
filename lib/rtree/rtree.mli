(** An R-tree [Guttman 84] over axis-aligned boxes, built from scratch.

    This is the query-point index of Section 4.1: the paper groups top-k
    query points by subdomain and indexes them with an R-tree so the
    affected subspace of an improvement strategy can be retrieved as a
    range (or halfspace-slab) search. The tree is dynamic (insert,
    delete) and also supports STR bulk loading for index-construction
    benchmarks. *)

open Geom

type 'a t

val create : ?min_entries:int -> ?max_entries:int -> dim:int -> unit -> 'a t
(** A fresh empty tree. [max_entries] defaults to 16, [min_entries] to
    [max_entries / 2 |> max 2].
    @raise Invalid_argument on nonsensical fan-out bounds. *)

val size : 'a t -> int
(** Number of stored entries. *)

val height : 'a t -> int
(** 0 for an empty tree, 1 for a single leaf root. *)

val node_count : 'a t -> int
(** Total directory + leaf nodes; proxies the index's memory footprint. *)

val insert_point : 'a t -> Vec.t -> 'a -> unit
(** [insert tree (Box.of_point p) v]. *)

val remove : 'a t -> Box.t -> ('a -> bool) -> bool
(** [remove t box p] deletes the first entry whose box equals [box] and
    whose value satisfies [p]; returns whether something was deleted.
    Underfull leaves are dissolved and their entries reinserted. *)

val search : 'a t -> Box.t -> (Box.t * 'a) list
(** All entries whose box intersects the window. *)

val search_pred :
  'a t ->
  node_pred:(Box.t -> bool) ->
  entry_pred:(Box.t -> bool) ->
  f:(Box.t -> 'a -> unit) ->
  unit
(** Generic pruned traversal: a subtree is descended only when
    [node_pred] holds on its MBR, and [f] is applied to entries whose box
    satisfies [entry_pred]. [node_pred] must be monotone (true on a box
    whenever true on a sub-box) for the traversal to be exhaustive; this
    is how halfspace-slab searches are expressed. *)

val nearest : 'a t -> Vec.t -> int -> (float * Box.t * 'a) list
(** [nearest t q k]: the [k] entries closest to [q] (squared Euclidean
    distance from box), nearest first. *)

val fold : 'a t -> init:'acc -> f:('acc -> Box.t -> 'a -> 'acc) -> 'acc

val bulk_load :
  ?min_entries:int -> ?max_entries:int -> dim:int -> (Box.t * 'a) list -> 'a t
(** Sort-Tile-Recursive packing; much faster than repeated inserts and
    produces well-filled nodes. *)

val check_invariants : 'a t -> unit
(** Validate MBR containment and fan-out bounds everywhere.
    @raise Failure with a description on the first violation. *)
