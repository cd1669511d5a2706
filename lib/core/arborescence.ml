module Seq_graph = Css_seqgraph.Seq_graph

type t = {
  parent : int array;
  parent_w : float array;
  alpha : float array;
  beta : int array;
  children : int list array;
  skipped_cycles : int;
}

let build ~n ~fixed ~out_weight (vw : Seq_graph.view) =
  let parent = Array.make n (-1) in
  let parent_w = Array.make n nan in
  let children = Array.make n [] in
  let skipped = ref 0 in
  let is_ancestor anc v =
    (* walk the parent chain of [v]; tree depth is bounded by n *)
    let rec up x = x = anc || (parent.(x) >= 0 && up parent.(x)) in
    up v
  in
  (* ascending weight order; stable sort of an index array keeps ties in
     insertion order, deterministically. [Float.compare] is the total
     order polymorphic [compare] gives floats, NaN included. *)
  let m = vw.Seq_graph.v_n in
  let order = Array.init m Fun.id in
  let w = vw.Seq_graph.v_w in
  Array.stable_sort (fun a b -> Float.compare w.(a) w.(b)) order;
  for i = 0 to m - 1 do
    let e = order.(i) in
    let u = vw.Seq_graph.v_src.(e) and v = vw.Seq_graph.v_dst.(e) in
    let we = w.(e) in
    if u <> v && (not (fixed v)) && parent.(v) < 0 && we < out_weight v then begin
      if is_ancestor v u then incr skipped
      else begin
        parent.(v) <- u;
        parent_w.(v) <- we;
        children.(u) <- v :: children.(u)
      end
    end
  done;
  (* alpha/beta by BFS from roots *)
  let alpha = Array.make n 0.0 and beta = Array.make n 0 in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if parent.(v) < 0 then Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        alpha.(v) <- alpha.(u) +. parent_w.(v);
        beta.(v) <- beta.(u) + 1;
        Queue.add v queue)
      children.(u)
  done;
  { parent; parent_w; alpha; beta; children; skipped_cycles = !skipped }

let parent t v = t.parent.(v)

let parent_weight t v =
  if t.parent.(v) < 0 then invalid_arg "Arborescence.parent_weight: root vertex";
  t.parent_w.(v)

let alpha t v = t.alpha.(v)
let beta t v = t.beta.(v)
let is_root t v = t.parent.(v) < 0
let children t v = t.children.(v)
let skipped_cycle_edges t = t.skipped_cycles
