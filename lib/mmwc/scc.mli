(** Strongly connected components (Tarjan, iterative).

    The scheduler uses SCCs to find sequential-graph cycles: any SCC with
    more than one vertex — or a self-loop — contains a cycle whose
    negative slack no skew assignment can eliminate (Section III-B2). *)

(** [components g] assigns each vertex a component id in [0..k-1];
    returns [(ids, k)]. Components are numbered in reverse topological
    order of the condensation. *)
val components : Digraph.t -> int array * int

(** [split g] is the induced subgraph of every SCC that contains a cycle
    (size >= 2, or a single vertex with a self-loop), in component-id
    order, each with its map from local to original vertex ids (local
    ids ascend with the original ones; see {!Digraph.split}). One
    O(n + m) pass after Tarjan; nothing is allocated per acyclic
    component. *)
val split : Digraph.t -> (Digraph.t * int array) array

(** [nontrivial g] lists the vertex sets of SCCs that contain a cycle
    (size >= 2, or a single vertex with a self-loop), each ascending. *)
val nontrivial : Digraph.t -> int list list
