(* Customized clock skew scheduling (the paper's conclusion: "our
   algorithm supports controlling flip-flop clock latency constraints,
   enabling customized clock skew scheduling") plus the two Section VI
   future-work extensions:

   1. Eq. (5) latency windows on interface flip-flops — CSS must work
      around them;
   2. CTS guidance — realize large targets by inserting purpose-built
      LCBs instead of reusing the existing ones;
   3. gate sizing on the paths skew alone cannot close.

   Run with:  dune exec examples/custom_constraints.exe *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Evaluator = Css_eval.Evaluator
module Session = Css_flow.Session

let () =
  let profile = Css_benchgen.Profile.scale 0.5 (Option.get (Css_benchgen.Profile.by_name "sb5")) in
  let base = Css_benchgen.Generator.generate profile in

  (* Constrain every port-adjacent flip-flop: flops within 1500 DBU of
     the die's west edge talk to external interfaces, so their total
     clock latency may not exceed its current value + 20 ps. *)
  let constrained = ref 0 in
  Array.iter
    (fun ff ->
      let pos = Design.cell_pos base ff in
      if pos.Css_geometry.Point.x < 1500.0 then begin
        incr constrained;
        Design.set_latency_bounds base ff ~lo:0.0
          ~hi:(Design.physical_clock_latency base ff +. 20.0)
      end)
    (Design.ffs base);
  Printf.printf "design %s: %d FFs, %d of them latency-constrained (Eq. 5 windows)\n"
    (Design.name base)
    (Array.length (Design.ffs base))
    !constrained;
  Printf.printf "initial:        %s\n\n" (Evaluator.summary (Evaluator.evaluate base));

  let run name config =
    let r = Session.run ~config ~algo:Session.Ours (Session.clone base) in
    Printf.printf "%-14s %s\n" name (Evaluator.summary r.Session.report);
    r
  in
  (* plain flow: bounded flops limit what skew can do *)
  let plain = run "plain:" Session.default_config in
  (* + CTS guidance: new LCBs realize the remaining targets precisely *)
  let cts = run "+CTS:" { Session.default_config with Session.use_cts = true } in
  (* + gate sizing: paths that skew cannot close get stronger drivers *)
  let full =
    run "+CTS+sizing:" { Session.default_config with Session.use_cts = true; Session.use_resize = true }
  in

  Printf.printf "\nlate TNS recovered: plain %.0f | +CTS %.0f | +CTS+sizing %.0f (ps)\n"
    plain.Session.report.Evaluator.tns_late cts.Session.report.Evaluator.tns_late
    full.Session.report.Evaluator.tns_late;
  Printf.printf "every run honoured the %d latency windows: %s\n" !constrained
    (if
       List.for_all
         (fun (r : Session.result) -> r.Session.report.Evaluator.constraint_errors = [])
         [ plain; cts; full ]
     then "yes"
     else "NO — constraint violations reported")
