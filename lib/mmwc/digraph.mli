(** A small immutable weighted digraph shared by the cycle solvers.

    Stored as compressed sparse rows: the out-edges of [u] occupy
    positions [off.(u) .. off.(u+1) - 1] of [dst] and [wt], in the order
    they were inserted.

    Order contract: {!iter_out} visits a vertex's edges in {e reverse}
    insertion order, and {!edges} lists them per source in ascending
    vertex order, in insertion order within a source. These are the
    orders of the list-of-lists representation this one replaced; the
    solvers' tie-breaks, and hence their bitwise answers, depend on
    them. *)

type t = private {
  n : int;
  off : int array;  (** [n + 1] block starts; read-only *)
  dst : int array;  (** edge targets, per-source blocks; read-only *)
  wt : float array;  (** edge weights, parallel to [dst]; read-only *)
}

(** [make ~n edges] builds a graph on vertices [0..n-1]; edges are
    [(src, dst, weight)].
    @raise Invalid_argument on out-of-range vertex ids. *)
val make : n:int -> (int * int * float) list -> t

(** [of_arrays ~n ~len ~keep src dst w] is
    [make ~n] of the edges [(src.(i), dst.(i), w.(i))] for the [i] in
    [0..len-1] with [keep i], inserted in ascending [i], without
    building the list. *)
val of_arrays :
  n:int -> len:int -> keep:(int -> bool) -> int array -> int array -> float array -> t

val num_vertices : t -> int
val num_edges : t -> int

(** [iter_out t v f] calls [f dst weight] for each out-edge of [v], in
    reverse insertion order. *)
val iter_out : t -> int -> (int -> float -> unit) -> unit

val edges : t -> (int * int * float) list

(** [min_weight t u v] is the lightest [u -> v] edge's weight, the
    earliest inserted among equal ones; [infinity] when there is none.
    O(out-degree of [u]). *)
val min_weight : t -> int -> int -> float

(** [split t ~part ~parts] is, for each [p] in [0..parts-1], the
    subgraph induced by the vertices [v] with [part.(v) = p], with its
    mapping from new ids to original ids. New ids ascend with the
    original ids and every vertex keeps its edges' relative order, so a
    part equals [induced t] of its members in ascending order. Vertices
    with [part.(v) < 0] belong to no part. O(n + m) in all, with storage
    allocated only for the parts. *)
val split : t -> part:int array -> parts:int -> (t * int array) array

(** [induced t vs] is the subgraph induced by vertex set [vs], together
    with the mapping from new ids to original ids. *)
val induced : t -> int list -> t * int array
