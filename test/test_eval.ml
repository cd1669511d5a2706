(* Tests for the independent evaluator. *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Evaluator = Css_eval.Evaluator
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Point = Css_geometry.Point

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

let test_matches_fresh_timer () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let r = Evaluator.evaluate design in
  checkf 1e-6 "early wns" (Timer.wns timer Timer.Early) r.Evaluator.wns_early;
  checkf 1e-6 "late wns" (Timer.wns timer Timer.Late) r.Evaluator.wns_late;
  checkf 1e-6 "early tns" (Timer.tns timer Timer.Early) r.Evaluator.tns_early;
  checkf 1e-6 "late tns" (Timer.tns timer Timer.Late) r.Evaluator.tns_late;
  checkf 1e-6 "hpwl" (Design.total_hpwl design) r.Evaluator.hpwl;
  checkb "no constraint errors on a fresh design" true (r.Evaluator.constraint_errors = [])

let test_ignores_scheduled_latencies_by_default () =
  let design = Generator.micro () in
  let r0 = Evaluator.evaluate design in
  let ff = (Design.ffs design).(0) in
  Design.set_scheduled_latency design ff 500.0;
  let r1 = Evaluator.evaluate design in
  checkf 1e-9 "physical-only scoring unchanged" r0.Evaluator.tns_late r1.Evaluator.tns_late;
  (* and the stashed latency is restored afterwards *)
  checkf 1e-9 "latency restored" 500.0 (Design.scheduled_latency design ff)

let test_include_scheduled_mode () =
  let design = Generator.micro () in
  let ff = (Design.ffs design).(0) in
  Design.set_scheduled_latency design ff 50.0;
  let cfg = { Evaluator.default_config with Evaluator.include_scheduled = true } in
  let r_with = Evaluator.evaluate ~config:cfg design in
  let r_without = Evaluator.evaluate design in
  checkb "modes differ when virtual latency present" true
    (Float.abs (r_with.Evaluator.tns_late -. r_without.Evaluator.tns_late) > 1e-9
    || Float.abs (r_with.Evaluator.tns_early -. r_without.Evaluator.tns_early) > 1e-9)

let test_detects_displacement_violation () =
  let design = Generator.micro () in
  (* move a combinational cell beyond any budget *)
  let victim = ref (-1) in
  Design.iter_cells design (fun c ->
      if !victim < 0 && not (Design.is_ff design c || Design.is_lcb design c) then victim := c);
  Design.move_cell design !victim (Point.make 2999.0 2999.0);
  let cfg = { Evaluator.default_config with Evaluator.max_displacement = 10.0 } in
  let r = Evaluator.evaluate ~config:cfg design in
  checkb "violation reported" true (r.Evaluator.constraint_errors <> [])

let test_detects_fanout_violation () =
  let design = Generator.generate Profile.tiny in
  let cfg = { Evaluator.default_config with Evaluator.lcb_fanout_limit = 1 } in
  let r = Evaluator.evaluate ~config:cfg design in
  checkb "tight limit flags LCBs" true (r.Evaluator.constraint_errors <> [])

let test_violation_counts () =
  let design = Generator.micro () in
  let r = Evaluator.evaluate design in
  checki "late violations" 1 r.Evaluator.num_late_violations;
  checki "early violations" 1 r.Evaluator.num_early_violations;
  checkb "late wns negative" true (r.Evaluator.wns_late < 0.0)

let test_summary_renders () =
  let design = Generator.micro () in
  let s = Evaluator.summary (Evaluator.evaluate design) in
  checkb "non-empty" true (String.length s > 20)

(* a design the fresh timer cannot build (a grafted combinational loop):
   the evaluator raises, and the scheduled latencies it stashed for the
   build must be back in place *)
let test_evaluate_restores_on_raise () =
  let text = Css_netlist.Io.to_string (Generator.micro ()) in
  let corrupted, _ =
    Css_benchgen.Mutator.corrupt Css_benchgen.Mutator.Comb_loop (Css_util.Rng.create 3) text
  in
  let design =
    Css_netlist.Io.of_string_exn ~library:Css_liberty.Library.default corrupted
  in
  let ffs = Design.ffs design in
  Array.iteri (fun i ff -> Design.set_scheduled_latency design ff (float_of_int (i + 1))) ffs;
  let sum () = Array.fold_left (fun acc ff -> acc +. Design.scheduled_latency design ff) 0.0 ffs in
  let expected = sum () in
  checkb "the input holds latencies" true (expected > 0.0);
  (match Evaluator.evaluate design with
  | _ -> Alcotest.fail "a combinational cycle should not evaluate"
  | exception Failure _ -> ());
  checkf 0.0 "scheduled latencies restored" expected (sum ());
  Array.iteri
    (fun i ff ->
      checkf 0.0 "per-FF latency restored" (float_of_int (i + 1))
        (Design.scheduled_latency design ff))
    ffs

(* [score] on an up-to-date timer is the fresh evaluation, also when a
   flip-flop holds a scheduled latency the live timer sees and the
   contest does not; the timer and the design end as they began *)
let test_score_matches_evaluate () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  checkb "equal to the fresh evaluation" true (Evaluator.score timer = Evaluator.evaluate design);
  let ff = (Design.ffs design).(0) in
  Design.set_scheduled_latency design ff 25.0;
  Timer.update_latencies timer [ ff ];
  let live = Evaluator.timing timer in
  let scored = Evaluator.score timer in
  checkb "the live view differs from the contest view" true
    (live <> { scored with Evaluator.constraint_errors = [] });
  checkb "held latency scored out" true (scored = Evaluator.evaluate design);
  checkf 0.0 "latency put back" 25.0 (Design.scheduled_latency design ff);
  checkb "timer back where it began" true (Evaluator.timing timer = live);
  let cfg = { Evaluator.default_config with Evaluator.include_scheduled = true } in
  checkb "include_scheduled reads the live view" true
    (Evaluator.score ~config:cfg timer = Evaluator.evaluate ~config:cfg design)

(* ------------------------------------------------------------------ *)
(* Report / histogram *)

module Report = Css_eval.Report

let test_histogram_bucketing () =
  let h = Report.Histogram.of_values ~edges:[ 0.0; 10.0 ] [ -5.0; 3.0; 7.0; 15.0; 10.0 ] in
  (match Report.Histogram.counts h with
  | [ (_, _, a); (_, _, b); (_, _, c) ] ->
    checki "below 0" 1 a;
    checki "[0,10)" 2 b;
    checki "10 and above" 2 c
  | _ -> Alcotest.fail "expected 3 buckets");
  checkb "renders" true (String.length (Report.Histogram.render h) > 0)

let test_histogram_total_preserved () =
  let values = List.init 100 (fun i -> float_of_int (i - 50)) in
  let h = Report.Histogram.of_values values in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Report.Histogram.counts h) in
  checki "no value lost" 100 total

let test_timing_summary () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let s = Report.timing_summary timer in
  checkb "mentions both corners" true
    (String.length s > 0
    &&
    let has sub =
      let n = String.length sub and h = String.length s in
      let rec loop i = i + n <= h && (String.sub s i n = sub || loop (i + 1)) in
      loop 0
    in
    has "late (setup)" && has "early (hold)" && has "WNS")

let test_worst_paths_report () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let s = Report.worst_paths_report timer Timer.Late ~endpoints:1 ~paths_per_endpoint:1 in
  checkb "one path printed" true (String.length s > 0);
  checkb "mentions a pin" true
    (let has sub =
       let n = String.length sub and h = String.length s in
       let rec loop i = i + n <= h && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     has "ffa/Q" || has "ffb/D")

let () =
  Alcotest.run "eval"
    [
      ( "evaluator",
        [
          Alcotest.test_case "matches fresh timer" `Quick test_matches_fresh_timer;
          Alcotest.test_case "ignores scheduled latencies" `Quick
            test_ignores_scheduled_latencies_by_default;
          Alcotest.test_case "include-scheduled mode" `Quick test_include_scheduled_mode;
          Alcotest.test_case "displacement violation" `Quick test_detects_displacement_violation;
          Alcotest.test_case "fanout violation" `Quick test_detects_fanout_violation;
          Alcotest.test_case "violation counts (micro)" `Quick test_violation_counts;
          Alcotest.test_case "summary renders" `Quick test_summary_renders;
          Alcotest.test_case "restores latencies when it raises" `Quick
            test_evaluate_restores_on_raise;
          Alcotest.test_case "score = evaluate on a live timer" `Quick
            test_score_matches_evaluate;
        ] );
      ( "report",
        [
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "histogram totals" `Quick test_histogram_total_preserved;
          Alcotest.test_case "timing summary" `Quick test_timing_summary;
          Alcotest.test_case "worst paths report" `Quick test_worst_paths_report;
        ] );
    ]
