module Seq_graph = Css_seqgraph.Seq_graph
module Digraph = Css_mmwc.Digraph
module Howard = Css_mmwc.Howard

type result = {
  members : Css_seqgraph.Vertex.id list;
  mean : float;
  increments : float array;
}

let find_and_schedule ~n ~edges:(vw : Seq_graph.view) ~fixed ~hard_cap =
  let src = vw.Seq_graph.v_src and dst = vw.Seq_graph.v_dst in
  (* self-loops are single-vertex cycles no skew can change *)
  let g =
    Digraph.of_arrays ~n ~len:vw.Seq_graph.v_n
      ~keep:(fun i -> src.(i) <> dst.(i))
      src dst vw.Seq_graph.v_w
  in
  (* Howard's policy iteration: the fastest of the three solvers, and
     cross-validated against Karp and Lawler in the test suite *)
  match Howard.min_mean_cycle g with
  | None -> None
  | Some (mean, cycle) ->
    let k = List.length cycle in
    let arr = Array.of_list cycle in
    (* weight of the cycle edge leaving position i: the lightest
       parallel edge, the first in view order on ties *)
    let edge_weight i = Digraph.min_weight g arr.(i) arr.((i + 1) mod k) in
    (* Start the Eq. (9) walk at a fixed member if one exists so its
       increment is 0 before shifting. *)
    let start =
      let rec find i = if i >= k then 0 else if fixed arr.(i) then i else find (i + 1) in
      find 0
    in
    let raw = Array.make k 0.0 in
    let alpha = ref 0.0 in
    for j = 1 to k - 1 do
      let pos = (start + j - 1) mod k in
      alpha := !alpha +. edge_weight pos;
      raw.(j) <- (float_of_int j *. mean) -. !alpha
    done;
    (* Shift to non-negative, but never move fixed members off 0. *)
    let has_fixed = Array.exists (fun v -> fixed v) arr in
    let shift =
      if has_fixed then 0.0
      else
        let m = Array.fold_left Float.min infinity raw in
        if m < 0.0 then -.m else 0.0
    in
    let increments = Array.make n 0.0 in
    for j = 0 to k - 1 do
      let v = arr.((start + j) mod k) in
      if not (fixed v) then
        increments.(v) <- Float.max 0.0 (Float.min (raw.(j) +. shift) (hard_cap v))
    done;
    Some { members = cycle; mean; increments }
