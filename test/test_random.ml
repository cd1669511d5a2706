(* Randomized invariant suite: every core invariant of DESIGN.md §7,
   checked across freshly generated designs with varying seeds. Each
   seed produces a different netlist, placement, violation mix and
   sequential-graph shape, so these runs cover corner configurations the
   hand-written tests cannot enumerate. *)

module Design = Css_netlist.Design
module Graph = Css_sta.Graph
module Timer = Css_sta.Timer
module Vertex = Css_seqgraph.Vertex
module Seq_graph = Css_seqgraph.Seq_graph
module Extract = Css_seqgraph.Extract
module Scheduler = Css_core.Scheduler
module Engine = Css_core.Engine
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Rng = Css_util.Rng

let checkb = Alcotest.check Alcotest.bool

let seeds = [ 1001; 2002; 3003; 4004; 5005 ]

(* vary the design family as well as the seed: the tiny profile plus two
   scaled-down presets with different violation mixes *)
let profiles seed =
  [
    { Profile.tiny with Profile.seed };
    { (Profile.scale 0.12 (Option.get (Profile.by_name "sb18"))) with Profile.seed = seed + 7 };
    { (Profile.scale 0.1 (Option.get (Profile.by_name "sb5"))) with Profile.seed = seed + 13 };
  ]

let fresh profile =
  let design = Generator.generate profile in
  (design, Timer.build design)

let for_each_seed f =
  List.iter (fun seed -> List.iter (fun p -> f seed (fresh p)) (profiles seed)) seeds

(* ------------------------------------------------------------------ *)

let test_generated_designs_well_formed () =
  for_each_seed (fun seed (design, _) ->
      checkb (Printf.sprintf "seed %d: check" seed) true (Design.check design = []))

let test_incremental_latency_equals_full () =
  for_each_seed (fun seed (design, timer) ->
      let rng = Rng.create (seed * 7) in
      let ffs = Design.ffs design in
      let changed =
        List.init 4 (fun _ -> ffs.(Rng.int rng (Array.length ffs))) |> List.sort_uniq compare
      in
      List.iter (fun ff -> Design.set_scheduled_latency design ff (Rng.float rng 60.0)) changed;
      Timer.update_latencies timer changed;
      let fresh_timer = Timer.build design in
      let g = Timer.graph timer in
      let ok = ref true in
      for n = 0 to Graph.num_nodes g - 1 do
        let close a b = a = b || Float.abs (a -. b) < 1e-6 in
        if
          not
            (close (Timer.arrival timer Timer.Late n) (Timer.arrival fresh_timer Timer.Late n)
            && close (Timer.required timer Timer.Late n) (Timer.required fresh_timer Timer.Late n)
            && close (Timer.arrival timer Timer.Early n) (Timer.arrival fresh_timer Timer.Early n)
            && close
                 (Timer.required timer Timer.Early n)
                 (Timer.required fresh_timer Timer.Early n))
        then ok := false
      done;
      checkb (Printf.sprintf "seed %d: incremental = full" seed) true !ok)

let test_essential_equals_negative_full () =
  for_each_seed (fun seed (design, timer) ->
      List.iter
        (fun corner ->
          let verts = Vertex.of_design design in
          let full = Extract.graph (Extract.run ~engine:Extract.Full timer verts ~corner) in
          let essential = Extract.run ~engine:Extract.Essential timer verts ~corner in
          ignore (Extract.round essential);
          let eg = Extract.graph essential in
          Seq_graph.iter_edges full (fun e ->
              if Seq_graph.weight full e < -1e-9 then
                match
                  Seq_graph.find eg ~src:(Seq_graph.src full e) ~dst:(Seq_graph.dst full e)
                with
                | Some e' ->
                  checkb
                    (Printf.sprintf "seed %d: weight agrees" seed)
                    true
                    (Float.abs (Seq_graph.weight eg e' -. Seq_graph.weight full e) < 1e-6)
                | None -> Alcotest.failf "seed %d: essential missed an edge" seed);
          Seq_graph.iter_edges eg (fun e ->
              checkb
                (Printf.sprintf "seed %d: only negative" seed)
                true
                (Seq_graph.weight eg e < 0.0)))
        [ Timer.Late; Timer.Early ];
      ignore design)

let test_scheduler_invariants_each_seed () =
  for_each_seed (fun seed (design, timer) ->
      List.iter
        (fun corner ->
          let tns0 = Timer.tns timer corner in
          let other = match corner with Timer.Late -> Timer.Early | Timer.Early -> Timer.Late in
          let other_wns0 = Timer.wns timer other in
          let result, _ = Engine.run_ours timer ~corner in
          (* corner improves (or was already clean) *)
          checkb (Printf.sprintf "seed %d: no regression" seed) true
            (Timer.tns timer corner >= tns0 -. 1e-6);
          (* cross corner never pushed into new violation *)
          checkb
            (Printf.sprintf "seed %d: cross-corner guard" seed)
            true
            (Timer.wns timer other >= Float.min other_wns0 0.0 -. 1e-6);
          (* latencies non-negative, supernodes untouched *)
          Array.iter
            (fun l -> checkb (Printf.sprintf "seed %d: target >= 0" seed) true (l >= 0.0))
            result.Scheduler.target_latency;
          Array.iter
            (fun ff ->
              checkb
                (Printf.sprintf "seed %d: scheduled >= 0" seed)
                true
                (Design.scheduled_latency design ff >= 0.0))
            (Design.ffs design))
        [ Timer.Early; Timer.Late ])

let test_scheduler_never_beats_optimum () =
  for_each_seed (fun seed (design, timer) ->
      let bound, _ = Css_core.Optimum.gap timer ~corner:Timer.Late in
      ignore (Engine.run_ours timer ~corner:Timer.Late);
      checkb
        (Printf.sprintf "seed %d: bound respected" seed)
        true
        (Timer.wns timer Timer.Late <= bound +. 1e-6);
      ignore design)

let test_flow_constraints_each_seed () =
  for_each_seed (fun seed (design, _) ->
      let before = Css_eval.Evaluator.evaluate design in
      let r = Css_flow.Session.run ~algo:Css_flow.Session.Ours design in
      checkb
        (Printf.sprintf "seed %d: constraints hold" seed)
        true
        (r.Css_flow.Session.report.Css_eval.Evaluator.constraint_errors = []);
      checkb
        (Printf.sprintf "seed %d: early improved or clean" seed)
        true
        (r.Css_flow.Session.report.Css_eval.Evaluator.tns_early >= -1e-6
        || r.Css_flow.Session.report.Css_eval.Evaluator.tns_early > before.Css_eval.Evaluator.tns_early))

let test_io_roundtrip_each_seed () =
  for_each_seed (fun seed (design, _) ->
      let s1 = Css_netlist.Io.to_string design in
      let d2 = Css_netlist.Io.of_string_exn ~library:(Design.library design) s1 in
      Alcotest.check Alcotest.string
        (Printf.sprintf "seed %d: serialization fixpoint" seed)
        s1
        (Css_netlist.Io.to_string d2);
      checkb (Printf.sprintf "seed %d: reload well-formed" seed) true (Design.check d2 = []))

let test_eq10_consistency_each_seed () =
  for_each_seed (fun seed (design, timer) ->
      let verts = Vertex.of_design design in
      let graph = Extract.graph (Extract.run ~engine:Extract.Full timer verts ~corner:Timer.Late) in
      let rng = Rng.create (seed * 13) in
      let deltas = Array.make (Vertex.num verts) 0.0 in
      Array.iter
        (fun ff ->
          if Rng.bool rng then begin
            let d = Rng.float rng 50.0 in
            deltas.(Vertex.of_ff verts ff) <- d;
            Design.set_scheduled_latency design ff (Design.scheduled_latency design ff +. d)
          end)
        (Design.ffs design);
      Timer.update_latencies timer (Array.to_list (Design.ffs design));
      Seq_graph.apply_latency_delta graph deltas;
      Seq_graph.iter_edges graph (fun e ->
          let reference = Seq_graph.recompute_weight graph timer e in
          checkb (Printf.sprintf "seed %d: Eq.(10) linear" seed) true
            (Float.abs (Seq_graph.weight graph e -. reference) < 1e-6)))

let () =
  Alcotest.run "random"
    [
      ( "invariants-across-seeds",
        [
          Alcotest.test_case "designs well-formed" `Quick test_generated_designs_well_formed;
          Alcotest.test_case "incremental = full" `Quick test_incremental_latency_equals_full;
          Alcotest.test_case "essential = negative(full)" `Quick
            test_essential_equals_negative_full;
          Alcotest.test_case "scheduler invariants" `Quick test_scheduler_invariants_each_seed;
          Alcotest.test_case "never beats optimum" `Quick test_scheduler_never_beats_optimum;
          Alcotest.test_case "flow constraints" `Quick test_flow_constraints_each_seed;
          Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip_each_seed;
          Alcotest.test_case "Eq.(10) consistency" `Quick test_eq10_consistency_each_seed;
        ] );
    ]
