(* The list-based cycle kernel as it stood before the CSR rewrite, kept
   as the reference the array-backed one must reproduce bitwise: a
   list-of-lists digraph, list-driven Tarjan, and Howard run on
   [Digraph.induced] of each nontrivial SCC. Only test_mmwc uses it. *)

module Digraph = struct
  type t = {
    n : int;
    adj : (int * float) list array;
    edge_count : int;
  }

  let make ~n edges =
    let adj = Array.make (max n 1) [] in
    List.iter
      (fun (u, v, w) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg (Printf.sprintf "Digraph.make: edge (%d,%d) out of range [0,%d)" u v n);
        adj.(u) <- (v, w) :: adj.(u))
      edges;
    { n; adj; edge_count = List.length edges }

  let num_vertices t = t.n

  let num_edges t = t.edge_count

  let iter_out t v f = List.iter (fun (dst, w) -> f dst w) t.adj.(v)

  let edges t =
    let acc = ref [] in
    for u = t.n - 1 downto 0 do
      List.iter (fun (v, w) -> acc := (u, v, w) :: !acc) t.adj.(u)
    done;
    !acc

  let induced t vs =
    let old_of_new = Array.of_list vs in
    let new_of_old = Array.make t.n (-1) in
    Array.iteri (fun i v -> new_of_old.(v) <- i) old_of_new;
    let sub_edges = ref [] in
    Array.iteri
      (fun i v ->
        iter_out t v (fun dst w ->
            if new_of_old.(dst) >= 0 then sub_edges := (i, new_of_old.(dst), w) :: !sub_edges))
      old_of_new;
    (make ~n:(Array.length old_of_new) !sub_edges, old_of_new)
end

module Scc = struct
  (* Iterative Tarjan: an explicit stack carries (vertex, remaining out
     list) frames so deep sequential graphs cannot overflow the OCaml
     stack. *)

  let components g =
    let n = Digraph.num_vertices g in
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let comp = Array.make n (-1) in
    let stack = ref [] in
    let next_index = ref 0 in
    let next_comp = ref 0 in
    let out = Array.make n [] in
    for v = 0 to n - 1 do
      let lst = ref [] in
      Digraph.iter_out g v (fun dst _ -> lst := dst :: !lst);
      out.(v) <- !lst
    done;
    let visit root =
      let frames = ref [ (root, out.(root)) ] in
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, succs) :: rest -> (
          match succs with
          | w :: more ->
            frames := (v, more) :: rest;
            if index.(w) < 0 then begin
              index.(w) <- !next_index;
              lowlink.(w) <- !next_index;
              incr next_index;
              stack := w :: !stack;
              on_stack.(w) <- true;
              frames := (w, out.(w)) :: !frames
            end
            else if on_stack.(w) && index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
          | [] ->
            frames := rest;
            (match rest with
            | (parent, _) :: _ -> if lowlink.(v) < lowlink.(parent) then lowlink.(parent) <- lowlink.(v)
            | [] -> ());
            if lowlink.(v) = index.(v) then begin
              let rec pop () =
                match !stack with
                | [] -> ()
                | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  comp.(w) <- !next_comp;
                  if w <> v then pop ()
              in
              pop ();
              incr next_comp
            end)
      done
    in
    for v = 0 to n - 1 do
      if index.(v) < 0 then visit v
    done;
    (comp, !next_comp)

  let nontrivial g =
    let comp, k = components g in
    let n = Digraph.num_vertices g in
    let members = Array.make k [] in
    for v = n - 1 downto 0 do
      members.(comp.(v)) <- v :: members.(comp.(v))
    done;
    let has_self_loop v =
      let found = ref false in
      Digraph.iter_out g v (fun dst _ -> if dst = v then found := true);
      !found
    in
    Array.to_list members
    |> List.filter (function
         | [] -> false
         | [ v ] -> has_self_loop v
         | _ :: _ :: _ -> true)
end

module Howard = struct
  (* Multi-chain Howard policy iteration on one strongly connected
     component (every vertex has an out-edge there). The policy graph is
     functional, so following it from any vertex reaches exactly one cycle;
     value determination labels each vertex with that cycle's mean (gain)
     and a relative bias, and the improvement step switches any edge that
     reaches a strictly smaller gain, or an equal gain with a smaller
     bias. *)

  let eps = 1e-9

  (* Comparison tolerance scaled to the operands: with weights in the
     thousands of picoseconds an absolute 1e-9 sits below one ulp, and a
     policy switch justified by pure rounding noise can cycle forever
     (improvement flips an edge, value determination flips it back). All
     gain/bias tie tests therefore use a relative epsilon. *)
  let tol a b = eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

  let min_mean_cycle_scc sub =
    let n = Digraph.num_vertices sub in
    (* out-edge arrays *)
    let out = Array.make n [] in
    for u = 0 to n - 1 do
      let lst = ref [] in
      Digraph.iter_out sub u (fun v w -> lst := (v, w) :: !lst);
      out.(u) <- !lst
    done;
    let policy = Array.map (fun l -> List.hd l) out in
    let gain = Array.make n 0.0 in
    let bias = Array.make n 0.0 in
    (* value determination: walk the policy's functional graph *)
    let determine () =
      let state = Array.make n 0 (* 0 unseen, 1 in progress, 2 done *) in
      let order = Array.make n 0 in
      for s = 0 to n - 1 do
        if state.(s) = 0 then begin
          (* walk until we hit a processed vertex or close a cycle *)
          let depth = ref 0 in
          let v = ref s in
          while state.(!v) = 0 do
            state.(!v) <- 1;
            order.(!depth) <- !v;
            incr depth;
            v := fst policy.(!v)
          done;
          if state.(!v) = 1 then begin
            (* closed a new cycle at !v: compute its mean *)
            let total = ref 0.0 and len = ref 0 in
            let u = ref !v in
            let continue_ = ref true in
            while !continue_ do
              total := !total +. snd policy.(!u);
              incr len;
              u := fst policy.(!u);
              if !u = !v then continue_ := false
            done;
            let lambda = !total /. float_of_int !len in
            (* biases around the cycle: fix bias(!v) = 0 *)
            gain.(!v) <- lambda;
            bias.(!v) <- 0.0;
            state.(!v) <- 2;
            (* walking forward: bias(prev) = w(prev,u) - lambda + bias(u),
               i.e. bias(u) = bias(prev) - (w(prev,u) - lambda) *)
            let u = ref (fst policy.(!v)) in
            let prev = ref !v in
            while !u <> !v do
              bias.(!u) <- bias.(!prev) -. (snd policy.(!prev) -. lambda);
              gain.(!u) <- lambda;
              state.(!u) <- 2;
              prev := !u;
              u := fst policy.(!u)
            done
          end;
          (* unwind the walked path (suffix may already be done) *)
          for i = !depth - 1 downto 0 do
            let u = order.(i) in
            if state.(u) <> 2 then begin
              let succ, w = policy.(u) in
              gain.(u) <- gain.(succ);
              bias.(u) <- (w -. gain.(succ)) +. bias.(succ);
              state.(u) <- 2
            end
          done
        end
      done
    in
    (* policy improvement *)
    let improve () =
      let changed = ref false in
      for u = 0 to n - 1 do
        List.iter
          (fun (v, w) ->
            let cand_bias = w -. gain.(u) +. bias.(v) in
            if
              gain.(v) < gain.(u) -. tol gain.(v) gain.(u)
              || (Float.abs (gain.(v) -. gain.(u)) <= tol gain.(v) gain.(u)
                 && cand_bias < bias.(u) -. tol cand_bias bias.(u))
            then begin
              policy.(u) <- (v, w);
              changed := true
            end)
          out.(u)
      done;
      !changed
    in
    let guard = ref 0 in
    determine ();
    while improve () && !guard < 10 * n * n do
      incr guard;
      determine ()
    done;
    (* the optimal policy's best cycle *)
    let best_v = ref 0 in
    for v = 1 to n - 1 do
      if gain.(v) < gain.(!best_v) then best_v := v
    done;
    (* walk the policy from best_v to its cycle and report it *)
    let seen = Array.make n (-1) in
    let v = ref !best_v in
    let steps = ref 0 in
    while seen.(!v) < 0 do
      seen.(!v) <- !steps;
      incr steps;
      v := fst policy.(!v)
    done;
    let start = !v in
    let cycle = ref [ start ] in
    let u = ref (fst policy.(start)) in
    while !u <> start do
      cycle := !u :: !cycle;
      u := fst policy.(!u)
    done;
    Some (gain.(!best_v), List.rev !cycle)

  let min_mean_cycle g =
    (* A single NaN or infinite weight silently corrupts every mean and
       bias it touches; reject the graph loudly instead. *)
    List.iter
      (fun (u, v, w) ->
        if not (Float.is_finite w) then
          invalid_arg
            (Printf.sprintf "Howard.min_mean_cycle: non-finite weight %g on edge %d->%d" w u v))
      (Digraph.edges g);
    let sccs = Scc.nontrivial g in
    List.fold_left
      (fun acc members ->
        let sub, old_of_new = Digraph.induced g members in
        match min_mean_cycle_scc sub with
        | None -> acc
        | Some (mean, cyc) ->
          let cyc = List.map (fun v -> old_of_new.(v)) cyc in
          (match acc with
          | Some (best, _) when best <= mean -> acc
          | Some _ | None -> Some (mean, cyc)))
      None sccs
end
