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

(* [sub] is one strongly connected component; [policy.(u)] is the CSR
   position of u's chosen out-edge. Out-edges are scanned in insertion
   order, the order the list-based kernel used, so ties resolve the
   same way. *)
let min_mean_cycle_scc (sub : Digraph.t) =
  let n = sub.n and off = sub.off and dst = sub.dst and wt = sub.wt in
  let policy = Array.sub off 0 n in
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
          v := dst.(policy.(!v))
        done;
        if state.(!v) = 1 then begin
          (* closed a new cycle at !v: compute its mean *)
          let total = ref 0.0 and len = ref 0 in
          let u = ref !v in
          let continue_ = ref true in
          while !continue_ do
            total := !total +. wt.(policy.(!u));
            incr len;
            u := dst.(policy.(!u));
            if !u = !v then continue_ := false
          done;
          let lambda = !total /. float_of_int !len in
          (* biases around the cycle: fix bias(!v) = 0 *)
          gain.(!v) <- lambda;
          bias.(!v) <- 0.0;
          state.(!v) <- 2;
          (* walking forward: bias(prev) = w(prev,u) - lambda + bias(u),
             i.e. bias(u) = bias(prev) - (w(prev,u) - lambda) *)
          let u = ref dst.(policy.(!v)) in
          let prev = ref !v in
          while !u <> !v do
            bias.(!u) <- bias.(!prev) -. (wt.(policy.(!prev)) -. lambda);
            gain.(!u) <- lambda;
            state.(!u) <- 2;
            prev := !u;
            u := dst.(policy.(!u))
          done
        end;
        (* unwind the walked path (suffix may already be done) *)
        for i = !depth - 1 downto 0 do
          let u = order.(i) in
          if state.(u) <> 2 then begin
            let succ = dst.(policy.(u)) and w = wt.(policy.(u)) in
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
      for e = off.(u) to off.(u + 1) - 1 do
        let v = dst.(e) and w = wt.(e) in
        let cand_bias = w -. gain.(u) +. bias.(v) in
        if
          gain.(v) < gain.(u) -. tol gain.(v) gain.(u)
          || (Float.abs (gain.(v) -. gain.(u)) <= tol gain.(v) gain.(u)
             && cand_bias < bias.(u) -. tol cand_bias bias.(u))
        then begin
          policy.(u) <- e;
          changed := true
        end
      done
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
    v := dst.(policy.(!v))
  done;
  let start = !v in
  let cycle = ref [ start ] in
  let u = ref dst.(policy.(start)) in
  while !u <> start do
    cycle := !u :: !cycle;
    u := dst.(policy.(!u))
  done;
  (gain.(!best_v), List.rev !cycle)

let min_mean_cycle (g : Digraph.t) =
  (* A single NaN or infinite weight silently corrupts every mean and
     bias it touches; reject the graph loudly instead. The scan follows
     [Digraph.edges] order, so the first bad edge is the one reported. *)
  for u = 0 to g.n - 1 do
    for e = g.off.(u) to g.off.(u + 1) - 1 do
      let w = g.wt.(e) in
      if not (Float.is_finite w) then
        invalid_arg
          (Printf.sprintf "Howard.min_mean_cycle: non-finite weight %g on edge %d->%d" w u
             g.dst.(e))
    done
  done;
  Array.fold_left
    (fun acc (sub, old_of_new) ->
      let mean, cyc = min_mean_cycle_scc sub in
      match acc with
      | Some (best, _) when best <= mean -> acc
      | Some _ | None -> Some (mean, List.map (fun v -> old_of_new.(v)) cyc))
    None (Scc.split g)

let max_mean_cycle g =
  let neg =
    Digraph.make ~n:(Digraph.num_vertices g)
      (List.map (fun (u, v, w) -> (u, v, -.w)) (Digraph.edges g))
  in
  Option.map (fun (mean, cyc) -> (-.mean, cyc)) (min_mean_cycle neg)
