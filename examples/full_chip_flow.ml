(* The complete slack-optimization flow of the paper on a generated
   benchmark: rounds of early CSS -> reconnection + cell movement -> late
   CSS -> reconnection, scored by the independent evaluator, with the
   Fig. 8-style per-iteration trajectory printed at the end.

   Run with:  dune exec examples/full_chip_flow.exe *)

module Design = Css_netlist.Design
module Evaluator = Css_eval.Evaluator
module Session = Css_flow.Session

let () =
  let profile = Css_benchgen.Profile.scale 0.5 (Option.get (Css_benchgen.Profile.by_name "sb18")) in
  let design = Css_benchgen.Generator.generate profile in
  Printf.printf "design %s: %d cells, %d FFs, %d LCBs\n" (Design.name design)
    (Design.num_cells design)
    (Array.length (Design.ffs design))
    (Array.length (Design.lcbs design));
  let before = Evaluator.evaluate design in
  Printf.printf "before: %s\n\n" (Evaluator.summary before);

  let result = Session.run ~algo:Session.Ours design in

  Printf.printf "after:  %s\n" (Evaluator.summary result.Session.report);
  Printf.printf "CSS %.3f s | OPT %.3f s | %d edges extracted | %d scheduler iterations\n"
    result.Session.css_seconds result.Session.opt_seconds result.Session.extracted_edges
    result.Session.css_iterations;
  Printf.printf "HPWL increase: %.3f%%\n\n" result.Session.hpwl_increase_pct;

  print_endline "optimization trajectory (compare the paper's Fig. 8):";
  print_endline "round  phase       iter   early WNS   early TNS    late WNS    late TNS";
  List.iter
    (fun (p : Session.trace_point) ->
      Printf.printf "%5d  %-10s %5d  %10.2f  %10.2f  %10.2f  %10.2f\n" p.Session.round p.Session.phase
        p.Session.iter p.Session.wns_early p.Session.tns_early p.Session.wns_late p.Session.tns_late)
    result.Session.trace
