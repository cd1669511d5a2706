(* Tests for strongly connected components and the minimum/maximum mean
   cycle solvers, including cross-validation of Karp against Lawler on
   random graphs. *)

module Digraph = Css_mmwc.Digraph
module Scc = Css_mmwc.Scc
module Karp = Css_mmwc.Karp
module Howard = Css_mmwc.Howard
module Rng = Css_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ------------------------------------------------------------------ *)
(* Digraph *)

let test_digraph_basics () =
  let g = Digraph.make ~n:3 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  checki "vertices" 3 (Digraph.num_vertices g);
  checki "edges" 2 (Digraph.num_edges g);
  checki "edge list" 2 (List.length (Digraph.edges g));
  Alcotest.check_raises "range check"
    (Invalid_argument "Digraph.make: edge (0,5) out of range [0,3)") (fun () ->
      ignore (Digraph.make ~n:3 [ (0, 5, 1.0) ]))

let test_digraph_induced () =
  let g = Digraph.make ~n:4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 3.0); (3, 0, 4.0) ] in
  let sub, old_of_new = Digraph.induced g [ 0; 1; 2 ] in
  checki "sub vertices" 3 (Digraph.num_vertices sub);
  checki "sub edges (3 inside the triangle)" 3 (Digraph.num_edges sub);
  checki "mapping" 0 old_of_new.(0)

(* ------------------------------------------------------------------ *)
(* SCC *)

let test_scc_dag () =
  let g = Digraph.make ~n:4 [ (0, 1, 0.); (1, 2, 0.); (2, 3, 0.) ] in
  let _, k = Scc.components g in
  checki "all singleton" 4 k;
  checki "no nontrivial" 0 (List.length (Scc.nontrivial g))

let test_scc_cycle () =
  let g = Digraph.make ~n:4 [ (0, 1, 0.); (1, 2, 0.); (2, 0, 0.); (3, 0, 0.) ] in
  let comp, k = Scc.components g in
  checki "two components" 2 k;
  checkb "triangle together" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  checkb "3 apart" true (comp.(3) <> comp.(0));
  match Scc.nontrivial g with
  | [ members ] -> checki "triangle size" 3 (List.length members)
  | _ -> Alcotest.fail "expected one nontrivial SCC"

let test_scc_self_loop () =
  let g = Digraph.make ~n:2 [ (0, 0, -1.0); (0, 1, 0.) ] in
  match Scc.nontrivial g with
  | [ [ v ] ] -> checki "self loop vertex" 0 v
  | _ -> Alcotest.fail "expected the self-loop singleton"

let test_scc_two_cycles () =
  let g =
    Digraph.make ~n:6
      [ (0, 1, 0.); (1, 0, 0.); (2, 3, 0.); (3, 4, 0.); (4, 2, 0.); (5, 0, 0.) ]
  in
  checki "two nontrivial" 2 (List.length (Scc.nontrivial g))

let test_scc_deep_chain_no_overflow () =
  (* iterative Tarjan must survive a 100k-vertex path *)
  let n = 100_000 in
  let edges = List.init (n - 1) (fun i -> (i, i + 1, 0.0)) in
  let g = Digraph.make ~n edges in
  let _, k = Scc.components g in
  checki "all singletons" n k

(* ------------------------------------------------------------------ *)
(* Mean cycles *)

let cycle_mean_of g cyc =
  let arr = Array.of_list cyc in
  let k = Array.length arr in
  let total = ref 0.0 in
  for i = 0 to k - 1 do
    let u = arr.(i) and v = arr.((i + 1) mod k) in
    let best = ref infinity in
    Digraph.iter_out g u (fun dst w -> if dst = v && w < !best then best := w);
    total := !total +. !best
  done;
  !total /. float_of_int k

let test_karp_acyclic () =
  let g = Digraph.make ~n:3 [ (0, 1, -5.0); (1, 2, -3.0) ] in
  checkb "no cycle" true (Karp.min_mean_cycle g = None)

let test_karp_triangle () =
  let g = Digraph.make ~n:3 [ (0, 1, -4.0); (1, 2, -2.0); (2, 0, -3.0) ] in
  match Karp.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-9 "mean" (-3.0) mean;
    checki "cycle length" 3 (List.length cyc);
    checkf 1e-9 "returned cycle achieves the mean" (-3.0) (cycle_mean_of g cyc)

let test_karp_picks_worst_cycle () =
  (* two disjoint cycles: {0,1} mean -1, {2,3} mean -6 *)
  let g =
    Digraph.make ~n:4 [ (0, 1, -1.0); (1, 0, -1.0); (2, 3, -5.0); (3, 2, -7.0) ]
  in
  match Karp.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-9 "worst mean" (-6.0) mean;
    checkb "cycle is {2,3}" true (List.sort compare cyc = [ 2; 3 ])

let test_karp_max () =
  let g = Digraph.make ~n:2 [ (0, 1, 3.0); (1, 0, 5.0) ] in
  match Karp.max_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, _) -> checkf 1e-9 "max mean" 4.0 mean

let test_lawler_triangle () =
  let g = Digraph.make ~n:3 [ (0, 1, -4.0); (1, 2, -2.0); (2, 0, -3.0) ] in
  match Lawler.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-6 "mean" (-3.0) mean;
    checkf 1e-6 "cycle achieves mean" (-3.0) (cycle_mean_of g cyc)

let test_lawler_acyclic () =
  let g = Digraph.make ~n:3 [ (0, 1, 1.0); (1, 2, -10.0) ] in
  checkb "no cycle" true (Lawler.min_mean_cycle g = None)

let random_graph rng n m =
  let edges =
    List.init m (fun _ ->
        (Rng.int rng n, Rng.int rng n, Rng.float_in rng (-10.0) 10.0))
  in
  (* drop self loops: both solvers treat them differently from the
     sequential-graph convention, so compare without them *)
  let edges = List.filter (fun (u, v, _) -> u <> v) edges in
  Digraph.make ~n edges

let test_karp_lawler_agree () =
  let rng = Rng.create 12345 in
  for case = 1 to 40 do
    let n = Rng.int_in rng 3 12 in
    let m = Rng.int_in rng n (3 * n) in
    let g = random_graph rng n m in
    match (Karp.min_mean_cycle g, Lawler.min_mean_cycle g) with
    | None, None -> ()
    | Some (a, cyc_a), Some (b, cyc_b) ->
      checkf 1e-5 (Printf.sprintf "case %d: means agree" case) a b;
      checkf 1e-5 (Printf.sprintf "case %d: karp cycle mean" case) a (cycle_mean_of g cyc_a);
      checkf 1e-5 (Printf.sprintf "case %d: lawler cycle mean" case) b (cycle_mean_of g cyc_b)
    | Some _, None -> Alcotest.fail (Printf.sprintf "case %d: lawler missed a cycle" case)
    | None, Some _ -> Alcotest.fail (Printf.sprintf "case %d: karp missed a cycle" case)
  done

let test_howard_triangle () =
  let g = Digraph.make ~n:3 [ (0, 1, -4.0); (1, 2, -2.0); (2, 0, -3.0) ] in
  match Howard.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-9 "mean" (-3.0) mean;
    checkf 1e-9 "cycle achieves mean" (-3.0) (cycle_mean_of g cyc)

let test_howard_acyclic () =
  let g = Digraph.make ~n:3 [ (0, 1, 1.0); (1, 2, -10.0) ] in
  checkb "no cycle" true (Howard.min_mean_cycle g = None)

let test_howard_picks_worst () =
  let g =
    Digraph.make ~n:4 [ (0, 1, -1.0); (1, 0, -1.0); (2, 3, -5.0); (3, 2, -7.0) ]
  in
  match Howard.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-9 "worst mean" (-6.0) mean;
    checkb "cycle is {2,3}" true (List.sort compare cyc = [ 2; 3 ])

let test_howard_agrees_with_karp () =
  let rng = Rng.create 424242 in
  for case = 1 to 60 do
    let n = Rng.int_in rng 3 14 in
    let m = Rng.int_in rng n (4 * n) in
    let g = random_graph rng n m in
    match (Karp.min_mean_cycle g, Howard.min_mean_cycle g) with
    | None, None -> ()
    | Some (a, _), Some (b, cyc_b) ->
      checkf 1e-5 (Printf.sprintf "case %d: howard = karp" case) a b;
      checkf 1e-5
        (Printf.sprintf "case %d: howard cycle mean" case)
        b (cycle_mean_of g cyc_b)
    | Some _, None -> Alcotest.fail (Printf.sprintf "case %d: howard missed a cycle" case)
    | None, Some _ -> Alcotest.fail (Printf.sprintf "case %d: howard found a phantom" case)
  done

let test_howard_max_variant () =
  let g = Digraph.make ~n:2 [ (0, 1, 3.0); (1, 0, 5.0) ] in
  match Howard.max_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, _) -> checkf 1e-9 "max mean" 4.0 mean

let test_mean_is_lower_bound () =
  (* no cycle in the graph has a mean below the reported minimum *)
  let rng = Rng.create 777 in
  for _ = 1 to 20 do
    let g = random_graph rng 8 20 in
    match Karp.min_mean_cycle g with
    | None -> ()
    | Some (mean, _) ->
      (* check all 2- and 3-cycles by brute force *)
      let n = Digraph.num_vertices g in
      let w = Array.make_matrix n n infinity in
      List.iter (fun (u, v, x) -> if x < w.(u).(v) then w.(u).(v) <- x) (Digraph.edges g);
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if w.(a).(b) < infinity && w.(b).(a) < infinity && a <> b then
            checkb "2-cycle bound" true ((w.(a).(b) +. w.(b).(a)) /. 2.0 >= mean -. 1e-6);
          for c = 0 to n - 1 do
            if
              a <> b && b <> c && a <> c && w.(a).(b) < infinity && w.(b).(c) < infinity
              && w.(c).(a) < infinity
            then
              checkb "3-cycle bound" true
                ((w.(a).(b) +. w.(b).(c) +. w.(c).(a)) /. 3.0 >= mean -. 1e-6)
          done
        done
      done
  done

(* ------------------------------------------------------------------ *)
(* The CSR kernel against the list-based kernel it replaced *)

(* Up to 60 vertices and up to 4n edges, sparse often enough that most
   components are singletons; parallel edges, self-loops, and three weights in four on
   a coarse integer grid so exact ties (including mean ties between
   components) are common. *)
let kernel_graph seed =
  let rng = Rng.create seed in
  let n = Rng.int_in rng 1 60 in
  let weight () =
    if Rng.int rng 4 > 0 then float_of_int (Rng.int_in rng (-2) 2) else Rng.float_in rng (-10.0) 10.0
  in
  let edges = ref [] in
  for _ = 1 to Rng.int_in rng 0 (Rng.int_in rng 1 4 * n) do
    let u = Rng.int rng n in
    let v = if Rng.int rng 8 = 0 then u else Rng.int rng n in
    let e = (u, v, weight ()) in
    edges := e :: !edges;
    if Rng.int rng 6 = 0 then edges := (u, v, weight ()) :: !edges
  done;
  (n, !edges)

let same_answer a b =
  match (a, b) with
  | None, None -> true
  | Some (m1, c1), Some (m2, c2) -> Int64.equal (Int64.bits_of_float m1) (Int64.bits_of_float m2) && c1 = c2
  | _ -> false

let kernel_matches_reference_prop =
  QCheck.Test.make ~name:"CSR kernel = list-based reference, bitwise" ~count:5000
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let n, edges = kernel_graph seed in
      let g = Digraph.make ~n edges and r = Mmwc_ref.Digraph.make ~n edges in
      let out iter v =
        let l = ref [] in
        iter v (fun d w -> l := (d, Int64.bits_of_float w) :: !l);
        !l
      in
      Digraph.edges g = Mmwc_ref.Digraph.edges r
      && List.for_all
           (fun v -> out (Digraph.iter_out g) v = out (Mmwc_ref.Digraph.iter_out r) v)
           (List.init n Fun.id)
      && Scc.components g = Mmwc_ref.Scc.components r
      && Scc.nontrivial g = Mmwc_ref.Scc.nontrivial r
      && same_answer (Howard.min_mean_cycle g) (Mmwc_ref.Howard.min_mean_cycle r))

(* Words allocated on either heap: the list kernel's per-SCC
   [Digraph.induced] made an n-entry array per component, which goes
   straight to the major heap. *)
let allocated_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let test_howard_allocation_linear () =
  (* 50 disjoint 2-cycles among 100k vertices: the split is one O(n + m)
     pass, not an O(n) array per SCC (the reference allocates >= 50n) *)
  let n = 100_000 in
  let edges =
    List.concat_map (fun i -> [ (2 * i, (2 * i) + 1, -1.0 -. float_of_int i); ((2 * i) + 1, 2 * i, 0.0) ])
      (List.init 50 (fun i -> i * 1000))
  in
  let g = Digraph.make ~n edges in
  let m = Digraph.num_edges g in
  let answer, words = allocated_words (fun () -> Howard.min_mean_cycle g) in
  (match answer with
  | Some (mean, cyc) ->
    checkf 0.0 "worst 2-cycle" (-.(1.0 +. 49_000.0) /. 2.0) mean;
    checkb "its members" true (List.sort compare cyc = [ 98_000; 98_001 ])
  | None -> Alcotest.fail "cycle expected");
  let budget = 16.0 *. float_of_int (n + m) in
  checkb
    (Printf.sprintf "allocated %.0f words, budget 16(n + m) = %.0f" words budget)
    true (words < budget)

let () =
  Alcotest.run "mmwc"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "induced" `Quick test_digraph_induced;
        ] );
      ( "scc",
        [
          Alcotest.test_case "dag" `Quick test_scc_dag;
          Alcotest.test_case "cycle" `Quick test_scc_cycle;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop;
          Alcotest.test_case "two cycles" `Quick test_scc_two_cycles;
          Alcotest.test_case "deep chain (stack safety)" `Quick test_scc_deep_chain_no_overflow;
        ] );
      ( "mean-cycle",
        [
          Alcotest.test_case "karp: acyclic" `Quick test_karp_acyclic;
          Alcotest.test_case "karp: triangle" `Quick test_karp_triangle;
          Alcotest.test_case "karp: picks worst" `Quick test_karp_picks_worst_cycle;
          Alcotest.test_case "karp: max variant" `Quick test_karp_max;
          Alcotest.test_case "lawler: triangle" `Quick test_lawler_triangle;
          Alcotest.test_case "lawler: acyclic" `Quick test_lawler_acyclic;
          Alcotest.test_case "karp = lawler on random graphs" `Quick test_karp_lawler_agree;
          Alcotest.test_case "howard: triangle" `Quick test_howard_triangle;
          Alcotest.test_case "howard: acyclic" `Quick test_howard_acyclic;
          Alcotest.test_case "howard: picks worst" `Quick test_howard_picks_worst;
          Alcotest.test_case "howard = karp on random graphs" `Quick test_howard_agrees_with_karp;
          Alcotest.test_case "howard: max variant" `Quick test_howard_max_variant;
          Alcotest.test_case "mean is a lower bound" `Quick test_mean_is_lower_bound;
        ] );
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest kernel_matches_reference_prop;
          Alcotest.test_case "howard allocates O(n + m)" `Quick test_howard_allocation_linear;
        ] );
    ]
