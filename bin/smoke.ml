(* Development smoke harness: exercises the whole pipeline on the micro
   and tiny designs and prints the state after each stage. *)

module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Evaluator = Css_eval.Evaluator

let banner s = Printf.printf "\n=== %s ===\n%!" s

let show_timer tag timer =
  Printf.printf "%-24s early WNS %8.2f TNS %10.2f | late WNS %8.2f TNS %10.2f\n%!" tag
    (Timer.wns timer Timer.Early) (Timer.tns timer Timer.Early) (Timer.wns timer Timer.Late)
    (Timer.tns timer Timer.Late)

let () =
  banner "micro design";
  let design = Css_benchgen.Generator.micro () in
  (match Design.check design with
  | [] -> print_endline "netlist check: OK"
  | es -> List.iter print_endline es);
  let timer = Timer.build design in
  show_timer "initial" timer;
  Array.iter
    (fun ff ->
      Printf.printf "  %s latency %.1f\n" (Design.cell_name design ff)
        (Design.clock_latency design ff))
    (Design.ffs design);
  let res_e, stats_e = Css_core.Engine.run_ours timer ~corner:Timer.Early in
  Printf.printf "early CSS: %d iters, %d edges extracted, %d cycles\n" res_e.iterations
    stats_e.edges_extracted res_e.cycles_handled;
  show_timer "after early CSS" timer;
  let res_l, stats_l = Css_core.Engine.run_ours timer ~corner:Timer.Late in
  Printf.printf "late CSS: %d iters, %d edges extracted, %d cycles\n" res_l.iterations
    stats_l.edges_extracted res_l.cycles_handled;
  show_timer "after late CSS" timer;
  Array.iter
    (fun ff ->
      Printf.printf "  %s scheduled %.1f\n" (Design.cell_name design ff)
        (Design.scheduled_latency design ff))
    (Design.ffs design);

  banner "tiny generated design";
  let tiny = Css_benchgen.Generator.generate Css_benchgen.Profile.tiny in
  (match Design.check tiny with
  | [] -> Printf.printf "netlist check: OK (%d cells, %d nets, %d FFs)\n" (Design.num_cells tiny)
            (Design.num_nets tiny) (Array.length (Design.ffs tiny))
  | es -> List.iter print_endline es);
  let report0 = Evaluator.evaluate tiny in
  Printf.printf "initial: %s\n" (Evaluator.summary report0);

  banner "tiny full flow (Ours)";
  let res = Css_flow.Session.run ~algo:Css_flow.Session.Ours (Css_flow.Session.clone tiny) in
  Printf.printf "final:   %s\n" (Evaluator.summary res.report);
  Printf.printf "css %.3fs opt %.3fs edges %d iters %d hpwl+%.4f%%\n" res.css_seconds
    res.opt_seconds res.extracted_edges res.css_iterations res.hpwl_increase_pct;

  banner "tiny full flow (IC-CSS+)";
  let res2 = Css_flow.Session.run ~algo:Css_flow.Session.Iccss_plus (Css_flow.Session.clone tiny) in
  Printf.printf "final:   %s\n" (Evaluator.summary res2.report);
  Printf.printf "css %.3fs opt %.3fs edges %d iters %d\n" res2.css_seconds res2.opt_seconds
    res2.extracted_edges res2.css_iterations;

  banner "tiny full flow (FPM)";
  let res3 = Css_flow.Session.run ~algo:Css_flow.Session.Fpm (Css_flow.Session.clone tiny) in
  Printf.printf "final:   %s\n" (Evaluator.summary res3.report);
  Printf.printf "css %.3fs opt %.3fs edges %d\n" res3.css_seconds res3.opt_seconds
    res3.extracted_edges;

  banner "sb18 (scaled 0.25) Ours vs IC-CSS+";
  let prof = Css_benchgen.Profile.scale 0.25 (Option.get (Css_benchgen.Profile.by_name "sb18")) in
  let d0 = Css_benchgen.Generator.generate prof in
  Printf.printf "design: %d cells %d ffs %d nets\n%!" (Design.num_cells d0)
    (Array.length (Design.ffs d0)) (Design.num_nets d0);
  Printf.printf "initial: %s\n%!" (Evaluator.summary (Evaluator.evaluate d0));
  let r1 = Css_flow.Session.run ~algo:Css_flow.Session.Ours (Css_flow.Session.clone d0) in
  Printf.printf "Ours:    %s\n  css %.3fs opt %.3fs edges %d\n%!" (Evaluator.summary r1.report)
    r1.css_seconds r1.opt_seconds r1.extracted_edges;
  let r2 = Css_flow.Session.run ~algo:Css_flow.Session.Iccss_plus (Css_flow.Session.clone d0) in
  Printf.printf "IC-CSS+: %s\n  css %.3fs opt %.3fs edges %d\n%!" (Evaluator.summary r2.report)
    r2.css_seconds r2.opt_seconds r2.extracted_edges
