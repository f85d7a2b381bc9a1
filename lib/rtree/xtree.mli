(** An X-tree [Berchtold, Keim & Kriegel 96] — the paper's alternative
    to the R-tree for indexing query points (Section 4.1 cites both).

    The X-tree is an R-tree that refuses high-overlap splits: when the
    best split of a directory node would make its halves overlap more
    than a threshold fraction of their area, the node becomes a
    {e supernode} — its capacity is doubled instead, keeping searches
    sequential-but-exact rather than descending two heavily overlapping
    subtrees (if the doubled node overflows again, it splits regardless,
    bounding the degradation). In low dimensions it behaves like an
    R-tree; as dimensionality (and overlap) grows, supernodes take
    over.

    The interface mirrors {!Rtree} where it matters to the IQ code:
    insertion, window search, pruned traversal. *)

open Geom

type 'a t

val create :
  ?max_entries:int -> ?max_overlap:float -> dim:int -> unit -> 'a t
(** [max_entries] defaults to 16; [max_overlap] (the supernode
    threshold, as a fraction of the split halves' area) to 0.2.
    @raise Invalid_argument on nonsensical parameters. *)

val size : 'a t -> int

val supernode_count : 'a t -> int
(** How many directory nodes ended up as supernodes. *)

val insert_point : 'a t -> Vec.t -> 'a -> unit

val search : 'a t -> Box.t -> (Box.t * 'a) list

val search_pred :
  'a t ->
  node_pred:(Box.t -> bool) ->
  entry_pred:(Box.t -> bool) ->
  f:(Box.t -> 'a -> unit) ->
  unit
(** Same contract as {!Rtree.search_pred}. *)

val iter : 'a t -> (Box.t -> 'a -> unit) -> unit

val check_invariants : 'a t -> unit
(** MBR containment everywhere; capacity bounds except in supernodes.
    @raise Failure on violation. *)
