(* Iterative Tarjan over the CSR arrays: an explicit frame stack holds
   (vertex, next out-edge position), so deep sequential graphs cannot
   overflow the OCaml stack. Successors are tried in insertion order,
   the order the list-based version used, so component ids are the
   same. *)

let components (g : Digraph.t) =
  let n = g.n and off = g.off and dst = g.dst in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_v = Array.make n 0 and frame_e = Array.make n 0 and fp = ref 0 in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_v.(!fp) <- v;
    frame_e.(!fp) <- off.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while !fp > 0 do
        let top = !fp - 1 in
        let v = frame_v.(top) and e = frame_e.(top) in
        if e < off.(v + 1) then begin
          frame_e.(top) <- e + 1;
          let w = dst.(e) in
          if index.(w) < 0 then enter w
          else if on_stack.(w) && index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
        end
        else begin
          fp := top;
          if top > 0 then begin
            let parent = frame_v.(top - 1) in
            if lowlink.(v) < lowlink.(parent) then lowlink.(parent) <- lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let popping = ref true in
            while !popping do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- !next_comp;
              popping := w <> v
            done;
            incr next_comp
          end
        end
      done
    end
  done;
  (comp, !next_comp)

let split (g : Digraph.t) =
  let comp, k = components g in
  (* A component holds a cycle when it has two or more vertices or a
     self-loop; [slot] numbers those in component order, -1 the rest. *)
  let size = Array.make k 0 in
  for u = 0 to g.n - 1 do
    let c = comp.(u) in
    size.(c) <- size.(c) + 1;
    for e = g.off.(u) to g.off.(u + 1) - 1 do
      if g.dst.(e) = u then size.(c) <- Int.max size.(c) 2
    done
  done;
  let slot = size and parts = ref 0 in
  for c = 0 to k - 1 do
    if size.(c) >= 2 then begin
      slot.(c) <- !parts;
      incr parts
    end
    else slot.(c) <- -1
  done;
  for v = 0 to g.n - 1 do
    comp.(v) <- slot.(comp.(v))
  done;
  Digraph.split g ~part:comp ~parts:!parts

let nontrivial g = Array.to_list (Array.map (fun (_, ids) -> Array.to_list ids) (split g))
