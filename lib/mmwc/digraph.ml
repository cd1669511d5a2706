type t = {
  n : int;
  off : int array;
  dst : int array;
  wt : float array;
}

(* Counting sort into CSR. [iter f] calls [f u v w] on every edge in
   insertion order and is run twice: once to count out-degrees, once to
   fill. The fill uses [off.(u)] as u's cursor, which leaves it at the
   start of block u+1; shifting the array right by one restores the
   block starts without a separate cursor array. *)
let build ~n ~m iter =
  let off = Array.make (max n 0 + 1) 0 in
  iter (fun u v _ ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Digraph.make: edge (%d,%d) out of range [0,%d)" u v n);
      off.(u + 1) <- off.(u + 1) + 1);
  for u = 1 to n do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let dst = Array.make m 0 and wt = Array.make m 0.0 in
  iter (fun u v w ->
      let p = off.(u) in
      dst.(p) <- v;
      wt.(p) <- w;
      off.(u) <- p + 1);
  for u = n downto 1 do
    off.(u) <- off.(u - 1)
  done;
  off.(0) <- 0;
  { n; off; dst; wt }

let make ~n edges =
  build ~n ~m:(List.length edges) (fun f -> List.iter (fun (u, v, w) -> f u v w) edges)

let of_arrays ~n ~len ~keep src dst w =
  let m = ref 0 in
  for i = 0 to len - 1 do
    if keep i then incr m
  done;
  build ~n ~m:!m (fun f ->
      for i = 0 to len - 1 do
        if keep i then f src.(i) dst.(i) w.(i)
      done)

let num_vertices t = t.n

let num_edges t = Array.length t.dst

let iter_out t v f =
  for e = t.off.(v + 1) - 1 downto t.off.(v) do
    f t.dst.(e) t.wt.(e)
  done

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for e = t.off.(u + 1) - 1 downto t.off.(u) do
      acc := (u, t.dst.(e), t.wt.(e)) :: !acc
    done
  done;
  !acc

let min_weight t u v =
  let best = ref infinity in
  for e = t.off.(u) to t.off.(u + 1) - 1 do
    if t.dst.(e) = v && t.wt.(e) < !best then best := t.wt.(e)
  done;
  !best

let split t ~part ~parts =
  let size = Array.make parts 0 and m = Array.make parts 0 in
  let local = Array.make (max t.n 0) (-1) in
  for u = 0 to t.n - 1 do
    let p = part.(u) in
    if p >= 0 then begin
      local.(u) <- size.(p);
      size.(p) <- size.(p) + 1;
      for e = t.off.(u) to t.off.(u + 1) - 1 do
        if part.(t.dst.(e)) = p then m.(p) <- m.(p) + 1
      done
    end
  done;
  let subs =
    Array.init parts (fun p ->
        ( { n = size.(p); off = Array.make (size.(p) + 1) 0; dst = Array.make m.(p) 0;
            wt = Array.make m.(p) 0.0 },
          Array.make size.(p) 0 ))
  in
  (* Members arrive in ascending original id, so each part's local ids
     and edge blocks fill in order: one running cursor per part. *)
  let fill = Array.make parts 0 in
  for u = 0 to t.n - 1 do
    let p = part.(u) in
    if p >= 0 then begin
      let sub, old_of_new = subs.(p) in
      let i = local.(u) in
      old_of_new.(i) <- u;
      sub.off.(i) <- fill.(p);
      for e = t.off.(u) to t.off.(u + 1) - 1 do
        let v = t.dst.(e) in
        if part.(v) = p then begin
          sub.dst.(fill.(p)) <- local.(v);
          sub.wt.(fill.(p)) <- t.wt.(e);
          fill.(p) <- fill.(p) + 1
        end
      done;
      sub.off.(i + 1) <- fill.(p)
    end
  done;
  subs

let induced t vs =
  let old_of_new = Array.of_list vs in
  let new_of_old = Array.make t.n (-1) in
  Array.iteri (fun i v -> new_of_old.(v) <- i) old_of_new;
  let sub_edges = ref [] in
  Array.iteri
    (fun i v ->
      for e = t.off.(v + 1) - 1 downto t.off.(v) do
        let d = new_of_old.(t.dst.(e)) in
        if d >= 0 then sub_edges := (i, d, t.wt.(e)) :: !sub_edges
      done)
    old_of_new;
  (make ~n:(Array.length old_of_new) !sub_edges, old_of_new)
