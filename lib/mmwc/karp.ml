(* Karp's theorem: on a strongly connected graph, the minimum cycle mean is
     lambda* = min_v max_{0<=k<n} (D_n(v) - D_k(v)) / (n - k)
   where D_k(v) is the minimum weight of a length-k walk from a fixed
   source to v. The critical cycle lies on the length-n walk to the argmin
   vertex and is recovered from the parent chain. *)

let min_mean_cycle_scc sub =
  let n = Digraph.num_vertices sub in
  let dist = Array.make_matrix (n + 1) n infinity in
  let parent = Array.make_matrix (n + 1) n (-1) in
  dist.(0).(0) <- 0.0;
  for k = 0 to n - 1 do
    for u = 0 to n - 1 do
      if dist.(k).(u) < infinity then
        Digraph.iter_out sub u (fun v w ->
            let cand = dist.(k).(u) +. w in
            if cand < dist.(k + 1).(v) then begin
              dist.(k + 1).(v) <- cand;
              parent.(k + 1).(v) <- u
            end)
    done
  done;
  let best = ref infinity in
  let best_v = ref (-1) in
  for v = 0 to n - 1 do
    if dist.(n).(v) < infinity then begin
      let worst = ref neg_infinity in
      for k = 0 to n - 1 do
        if dist.(k).(v) < infinity then begin
          let mean = (dist.(n).(v) -. dist.(k).(v)) /. float_of_int (n - k) in
          if mean > !worst then worst := mean
        end
      done;
      if !worst < !best then begin
        best := !worst;
        best_v := v
      end
    end
  done;
  if !best_v < 0 then None
  else begin
    (* Walk the length-n parent chain from best_v; a vertex repeats within
       it, and the loop between repeats is a minimum-mean cycle. *)
    let walk = Array.make (n + 1) (-1) in
    let v = ref !best_v in
    walk.(n) <- !v;
    for k = n downto 1 do
      v := parent.(k).(!v);
      walk.(k - 1) <- !v
    done;
    let seen = Array.make n (-1) in
    let cycle = ref None in
    (try
       for i = n downto 0 do
         let u = walk.(i) in
         if seen.(u) >= 0 then begin
           (* vertices walk.(i) .. walk.(seen.(u)) form the cycle *)
           let cyc = ref [] in
           for j = i to seen.(u) - 1 do
             cyc := walk.(j) :: !cyc
           done;
           cycle := Some (List.rev !cyc);
           raise Exit
         end;
         seen.(u) <- i
       done
     with Exit -> ());
    match !cycle with
    | None -> None
    | Some cyc -> Some (!best, cyc)
  end

let min_mean_cycle g =
  Array.fold_left
    (fun acc (sub, old_of_new) ->
      match min_mean_cycle_scc sub with
      | None -> acc
      | Some (mean, cyc) ->
        let cyc = List.map (fun v -> old_of_new.(v)) cyc in
        (match acc with
        | Some (best, _) when best <= mean -> acc
        | Some _ | None -> Some (mean, cyc)))
    None (Scc.split g)

let max_mean_cycle g =
  let neg = Digraph.make ~n:(Digraph.num_vertices g) (List.map (fun (u, v, w) -> (u, v, -.w)) (Digraph.edges g)) in
  Option.map (fun (mean, cyc) -> (-.mean, cyc)) (min_mean_cycle neg)
