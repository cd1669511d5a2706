module Digraph = Css_mmwc.Digraph

(* A negative cycle exists in the graph with weights (w - lambda) iff
   lambda exceeds the minimum cycle mean, so the mean is found by binary
   search; the witness cycle comes from Bellman-Ford parent pointers at a
   lambda slightly above the answer. *)

(* Bellman-Ford from a virtual super-source (all dist 0). Returns a
   negative cycle as a vertex list if one exists. *)
let negative_cycle g ~shift =
  let n = Digraph.num_vertices g in
  let dist = Array.make n 0.0 in
  let parent = Array.make n (-1) in
  let updated_vertex = ref (-1) in
  for _pass = 1 to n do
    updated_vertex := -1;
    for u = 0 to n - 1 do
      Digraph.iter_out g u (fun v w ->
          let cand = dist.(u) +. w -. shift in
          if cand < dist.(v) -. 1e-12 then begin
            dist.(v) <- cand;
            parent.(v) <- u;
            updated_vertex := v
          end)
    done
  done;
  if !updated_vertex < 0 then None
  else begin
    (* back up n steps to land inside the cycle, then trace it *)
    let v = ref !updated_vertex in
    for _ = 1 to n do
      if parent.(!v) >= 0 then v := parent.(!v)
    done;
    let start = !v in
    let cyc = ref [ start ] in
    let u = ref parent.(start) in
    while !u <> start && !u >= 0 do
      cyc := !u :: !cyc;
      u := parent.(!u)
    done;
    Some !cyc
  end

let cycle_mean g cyc =
  (* mean weight of the cycle given as a vertex list in cycle order *)
  let arr = Array.of_list cyc in
  let n = Array.length arr in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let u = arr.(i) and v = arr.((i + 1) mod n) in
    let best = ref infinity in
    Digraph.iter_out g u (fun dst w -> if dst = v && w < !best then best := w);
    total := !total +. !best
  done;
  !total /. float_of_int n

let min_mean_cycle ?(precision = 1e-9) g =
  let ws = List.map (fun (_, _, w) -> w) (Digraph.edges g) in
  match ws with
  | [] -> None
  | w0 :: _ ->
    let lo = ref (List.fold_left Float.min w0 ws) in
    let hi = ref (List.fold_left Float.max w0 ws) in
    (match negative_cycle g ~shift:(!hi +. 1.0) with
    | None -> None (* no cycle at all *)
    | Some _ ->
      while !hi -. !lo > precision do
        let mid = (!lo +. !hi) /. 2.0 in
        match negative_cycle g ~shift:mid with
        | Some _ -> hi := mid
        | None -> lo := mid
      done;
      (match negative_cycle g ~shift:(!hi +. (2.0 *. precision) +. 1e-12) with
      | Some cyc -> Some (cycle_mean g cyc, cyc)
      | None -> None))

let max_mean_cycle ?precision g =
  let neg =
    Digraph.make ~n:(Digraph.num_vertices g)
      (List.map (fun (u, v, w) -> (u, v, -.w)) (Digraph.edges g))
  in
  Option.map (fun (mean, cyc) -> (-.mean, cyc)) (min_mean_cycle ?precision neg)
