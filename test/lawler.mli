(** Lawler's minimum mean cycle algorithm: binary search on the mean with
    Bellman-Ford negative-cycle detection. Kept beside the tests as an
    independent reference for {!Css_mmwc.Karp}; only test_mmwc uses it. *)

module Digraph = Css_mmwc.Digraph

(** [min_mean_cycle ?precision g] is [Some (mean, cycle)], [None] when
    acyclic. [precision] bounds the binary-search error (default 1e-9). *)
val min_mean_cycle : ?precision:float -> Digraph.t -> (float * int list) option

(** [max_mean_cycle ?precision g] is the same on negated weights. *)
val max_mean_cycle : ?precision:float -> Digraph.t -> (float * int list) option
