(* Differential oracles across the scheduling engines, plus the
   property-based fault corpus with shrinking.

   The engine sweep runs 3 profiles x 5 seeds x all 3 engines and holds
   the paper's central equivalence claim: iterative essential extraction
   reaches the timing of exhaustive extraction (and IC-CSS+ parity keeps
   the baseline honest). The qcheck properties cover parallel-extraction
   bit-identity, warm-session identity under random delta sequences, and
   pipeline graceful degradation under random fault sequences; a failing sequence is shrunk by Fault_seq and printed as a
   replayable seed + fault list. *)

module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Rng = Css_util.Rng
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Mutator = Css_benchgen.Mutator
module Fault_seq = Css_benchgen.Fault_seq
module Timer = Css_sta.Timer
module Oracles = Css_oracle.Oracles

let library = Css_liberty.Library.default
let checkb = Alcotest.check Alcotest.bool
let seeds = [ 1001; 2002; 3003; 4004; 5005 ]

let profiles seed =
  [
    { Profile.tiny with Profile.seed };
    { (Profile.scale 0.12 (Option.get (Profile.by_name "sb18"))) with Profile.seed = seed + 7 };
    { (Profile.scale 0.1 (Option.get (Profile.by_name "sb5"))) with Profile.seed = seed + 13 };
  ]

let fail_all ctx = function
  | [] -> ()
  | failures -> Alcotest.failf "%s:\n  %s" ctx (String.concat "\n  " failures)

(* {2 The engine sweep: ours == full == iccss, and every schedule is
   feasible} *)

let test_engine_parity corner cname () =
  List.iter
    (fun seed ->
      List.iter
        (fun profile ->
          let design = Generator.generate profile in
          let ctx engine =
            Printf.sprintf "%s/seed%d/%s/%s" profile.Profile.name seed cname engine
          in
          let reference = Oracles.schedule Oracles.Full_graph design ~corner in
          let ours = Oracles.schedule Oracles.Ours design ~corner in
          let iccss = Oracles.schedule Oracles.Iccss design ~corner in
          fail_all (ctx "ours-vs-full") (Oracles.check_parity ~reference ours);
          fail_all (ctx "iccss-vs-full") (Oracles.check_parity ~reference iccss);
          (* every engine extracts *something* on these violating designs;
             cumulative counts are not comparable across engines (Essential
             legitimately re-extracts as latencies shift round to round) *)
          if ours.Oracles.edges_extracted = 0 && reference.Oracles.edges_extracted > 0 then
            Alcotest.failf "%s: essential extracted nothing where full found %d edges"
              (ctx "edges") reference.Oracles.edges_extracted;
          fail_all (ctx "feasible")
            (Oracles.check_feasible ours.Oracles.scheduled ~corner))
        (profiles seed))
    seeds

(* {2 Parallel extraction: bit-identity at any job count} *)

let test_jobs_identity_sweep () =
  List.iter
    (fun seed ->
      let design = Generator.generate { Profile.tiny with Profile.seed } in
      List.iter
        (fun corner ->
          fail_all
            (Printf.sprintf "jobs/seed%d" seed)
            (Oracles.check_jobs_identity design ~corner))
        [ Timer.Early; Timer.Late ])
    seeds

let jobs_identity_prop =
  QCheck.Test.make ~name:"jobs {1,2,8} bit-identical" ~count:6
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let design = Generator.generate { Profile.tiny with Profile.seed } in
      match Oracles.check_jobs_identity ~jobs:[ 2; 8 ] design ~corner:Timer.Late with
      | [] -> true
      | failures -> QCheck.Test.fail_report (String.concat "\n" failures))

(* {2 Warm sessions: incremental = from scratch under random deltas} *)

(* random session-delta sequences on random tiny designs: a warm
   session must track a from-scratch run bitwise across every batch *)
let eco_identity_prop =
  QCheck.Test.make ~name:"warm = from-scratch under deltas" ~count:6
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let design = Generator.generate { Profile.tiny with Profile.seed } in
      let rng = Random.State.make [| seed; 77 |] in
      let deltas =
        [ Oracles.random_deltas rng design ~n:2; Oracles.random_deltas rng design ~n:3 ]
      in
      match Oracles.check_eco_identity ~deltas design ~algo:Css_flow.Session.Ours with
      | [] -> true
      | failures -> QCheck.Test.fail_report (String.concat "\n" failures))

(* {2 Checkpoint scores: live timer = fresh evaluation} *)

module Session = Css_flow.Session
module Point = Css_geometry.Point

let checkpoint_algos = [ Session.Ours; Session.Ours_early; Session.Iccss_plus; Session.Fpm ]

let checkpoint_configs =
  [
    ("default", Session.default_config);
    ("resize", { Session.default_config with Session.use_resize = true });
    ("cts", { Session.default_config with Session.use_cts = true });
    ("jobs2", { Session.default_config with Session.jobs = 2 });
  ]

(* every phase boundary of profiles x algorithms x configurations: the
   live-timer score must equal a fresh evaluation bitwise *)
let test_checkpoint_scores_sweep () =
  List.iter
    (fun profile ->
      let design = Generator.generate profile in
      List.iter
        (fun algo ->
          List.iter
            (fun (cname, config) ->
              fail_all
                (Printf.sprintf "checkpoint/%s/%s/%s" profile.Profile.name
                   (Session.algo_name algo) cname)
                (Oracles.check_checkpoint_scores ~config design ~algo))
            checkpoint_configs)
        checkpoint_algos)
    (profiles 424242)

(* an input whose flip-flops arrive with scheduled latencies: the live
   timer is not the contest view, so scoring takes them out for the read *)
let test_checkpoint_scores_held () =
  let design = Generator.generate { Profile.tiny with Profile.seed = 424242 } in
  Array.iteri
    (fun i ff ->
      let lo, hi = Design.latency_bounds design ff in
      Design.set_scheduled_latency design ff (Float.min hi (lo +. float_of_int (1 + (i mod 7)))))
    (Design.ffs design);
  let probe = Session.open_ ~algo:Session.Ours (Css_flow.Session.clone design) in
  let held =
    let d = Session.design probe in
    Array.exists (fun ff -> Design.scheduled_latency d ff <> 0.0) (Design.ffs d)
  in
  Session.close probe;
  checkb "input holds scheduled latencies at open" true held;
  List.iter
    (fun algo ->
      fail_all
        (Printf.sprintf "checkpoint-held/%s" (Session.algo_name algo))
        (Oracles.check_checkpoint_scores design ~algo))
    checkpoint_algos

(* a delta that moves an LCB re-times every flip-flop it drives: the
   warm session's live timer, which scores the delta run's [start]
   checkpoint, must read what a fresh timer on the edited design reads *)
let test_lcb_move_delta_retimes () =
  let design = Generator.generate { Profile.tiny with Profile.seed = 424242 } in
  let s = Session.open_ ~algo:Session.Ours design in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      ignore (Session.finish s);
      let d = Session.design s in
      Array.iter
        (fun lcb ->
          let pos = Design.cell_pos d lcb in
          let move =
            Session.Move_cell
              { cell = Design.cell_name d lcb; x = pos.Point.x +. 150.0; y = pos.Point.y }
          in
          let fresh =
            match Session.stage ~timer:Timer.default_config (Css_flow.Session.clone d) [ move ] with
            | Ok sg -> Timer.build sg.Session.sg_design
            | Error _ -> Alcotest.fail "LCB move rejected by stage"
          in
          match Session.apply_delta s [ move ] with
          | Error _ -> Alcotest.fail "LCB move rejected"
          | Ok o ->
            let start = List.hd o.Session.d_result.Session.trace in
            let bits = Int64.bits_of_float in
            checkb
              (Design.cell_name d lcb ^ " moved: start point = fresh timer")
              true
              (List.map bits
                 [ start.Session.wns_early; start.Session.tns_early; start.Session.wns_late;
                   start.Session.tns_late ]
              = List.map bits
                  [ Timer.wns fresh Timer.Early; Timer.tns fresh Timer.Early;
                    Timer.wns fresh Timer.Late; Timer.tns fresh Timer.Late ]))
        (Design.lcbs d))

(* {2 The fault corpus: random fault sequences, shrunk on failure} *)

let base_corpus () =
  {
    Fault_seq.design_text = Io.to_string (Generator.micro ());
    Fault_seq.sdc_text =
      "create_clock -period 400\nset_clock_uncertainty -setup 5\nset_latency_bounds ffa 0 150\n";
    Fault_seq.library;
  }

let fault_seq_arb =
  QCheck.make
    ~print:Fault_seq.to_string
    ~shrink:(fun t yield -> Seq.iter yield (Fault_seq.shrink t))
    (QCheck.Gen.map (fun n -> Fault_seq.gen (Rng.create n)) (QCheck.Gen.int_bound 1_000_000))

let pipeline_survives_prop =
  QCheck.Test.make ~name:"pipeline degrades gracefully under fault sequences" ~count:25
    fault_seq_arb
    (fun t ->
      let corpus, _applied = Fault_seq.apply t (base_corpus ()) in
      match Oracles.pipeline corpus with
      | Ok _ -> true
      | Error msg ->
        QCheck.Test.fail_report
          (Printf.sprintf "%s\nreproduce with: %s" msg (Fault_seq.to_string t)))

(* {2 Resume identity: continuation must be invisible} *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "css-diff-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

let resume_algos = [ Css_flow.Session.Ours; Css_flow.Session.Iccss_plus; Css_flow.Session.Fpm ]

(* the acceptance sweep: >= 3 profiles x 3 algorithms, killed at a
   completed-phase boundary, resumed from disk, final latencies bitwise
   identical to an uninterrupted run *)
let test_resume_identity_sweep () =
  List.iter
    (fun profile ->
      List.iter
        (fun algo ->
          let design = Generator.generate profile in
          let ctx =
            Printf.sprintf "resume/%s/%s" profile.Profile.name (Css_flow.Session.algo_name algo)
          in
          fail_all ctx
            (Oracles.check_resume_identity ~kill_after_phase:1 design ~algo ~dir:(fresh_dir ())))
        resume_algos)
    (profiles 424242)

(* mid-phase kills: the scheduler aborts between iterations, nothing of
   the partial phase survives, and the redo is bitwise the same *)
let resume_identity_prop =
  QCheck.Test.make ~name:"resume bitwise-identical killed at any boundary" ~count:8
    (QCheck.pair
       (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
       (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 30)))
    (fun (seed, kill_at) ->
      let design = Generator.generate { Profile.tiny with Profile.seed } in
      match
        Oracles.check_resume_identity ~kill_after_iteration:(kill_at + 1) design
          ~algo:Css_flow.Session.Ours ~dir:(fresh_dir ())
      with
      | [] -> true
      | failures -> QCheck.Test.fail_report (String.concat "\n" failures))

(* crash injection: a torn write of the checkpoint file itself must be
   detected at load, never parsed into a half-state *)
let test_partial_write_detected () =
  let dir = fresh_dir () in
  let design = Generator.generate { Profile.tiny with Profile.seed = 7 } in
  let config =
    {
      Css_flow.Session.default_config with
      Css_flow.Session.checkpoint_dir = Some dir;
      Css_flow.Session.rounds = 1;
    }
  in
  ignore (Css_flow.Session.run ~config ~algo:Css_flow.Session.Ours design);
  let file = Css_flow.Persist.path ~dir in
  let pristine = In_channel.with_open_bin file In_channel.input_all in
  (* every prefix of the file is a possible torn state after a crash
     mid-write over the final name (the atomic tmp+rename path never
     produces these; this guards the detection that backs it up) *)
  List.iter
    (fun frac ->
      let n = String.length pristine * frac / 100 in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (String.sub pristine 0 n));
      match Css_flow.Persist.load ~dir with
      | Ok _ when frac < 100 -> Alcotest.failf "a %d%% prefix loaded as a valid checkpoint" frac
      | Ok _ -> ()
      | Error (d :: _) ->
        if not (String.length d.Css_util.Diag.code >= 5 && String.sub d.Css_util.Diag.code 0 5 = "CKPT-")
        then Alcotest.failf "prefix %d%%: rejection without a CKPT code (%s)" frac d.Css_util.Diag.code
      | Error [] -> Alcotest.fail "rejection without diagnostics")
    [ 0; 3; 17; 50; 90; 99; 100 ]

(* {2 The shrinker itself} *)

let test_roundtrip () =
  List.iter
    (fun seed ->
      let t = Fault_seq.gen (Rng.create seed) in
      let s = Fault_seq.to_string t in
      match Fault_seq.of_string s with
      | Error e -> Alcotest.failf "seed %d: %s does not re-parse: %s" seed s e
      | Ok t' ->
        Alcotest.(check string) (Printf.sprintf "seed %d round-trips" seed) s
          (Fault_seq.to_string t');
        (* replaying the parsed form corrupts identically *)
        let c1, n1 = Fault_seq.apply t (base_corpus ()) in
        let c2, n2 = Fault_seq.apply t' (base_corpus ()) in
        Alcotest.(check int) "same applied count" n1 n2;
        Alcotest.(check string) "same design text" c1.Fault_seq.design_text
          c2.Fault_seq.design_text;
        Alcotest.(check string) "same sdc text" c1.Fault_seq.sdc_text c2.Fault_seq.sdc_text)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_shrink_stability () =
  (* removing steps must not change how the surviving steps corrupt:
     each step's rng is derived from (seed, salt), not list position *)
  let t = Fault_seq.gen ~max_len:5 (Rng.create 99) in
  match t.Fault_seq.steps with
  | [] | [ _ ] -> Alcotest.fail "generated sequence too short for the stability check"
  | _ :: rest ->
    let dropped = { t with Fault_seq.steps = rest } in
    let full, _ = Fault_seq.apply { t with Fault_seq.steps = rest } (base_corpus ()) in
    let again, _ = Fault_seq.apply dropped (base_corpus ()) in
    Alcotest.(check string) "suffix corrupts identically" full.Fault_seq.design_text
      again.Fault_seq.design_text

let test_minimize_planted_bug () =
  (* stand-in for a planted engine bug: the "engine" falls over whenever
     the corpus contains a grafted combinational loop AND a corrupted
     library. minimize must find a <= 3-step reproducer (here exactly 2:
     one Comb_loop, one Lib step, since removals are tried to a
     fixpoint) and print it replayably. *)
  let fails t =
    let has p = List.exists (fun (s : Fault_seq.step) -> p s.Fault_seq.op) t.Fault_seq.steps in
    has (function Fault_seq.Netlist Mutator.Comb_loop -> true | _ -> false)
    && has (function Fault_seq.Lib _ -> true | _ -> false)
  in
  (* grow until a failing sequence appears, as the fuzz CLI would *)
  let rec first_failing n =
    if n > 10_000 then Alcotest.fail "no failing sequence in 10000 trials"
    else
      let t = Fault_seq.gen ~max_len:8 (Rng.create n) in
      if fails t then t else first_failing (n + 1)
  in
  let t = first_failing 0 in
  let small = Fault_seq.minimize fails t in
  checkb "still failing" true (fails small);
  let len = List.length small.Fault_seq.steps in
  if len > 3 then
    Alcotest.failf "minimized to %d steps (> 3): %s" len (Fault_seq.to_string small);
  (* the reproducer replays *)
  match Fault_seq.of_string (Fault_seq.to_string small) with
  | Ok replay -> checkb "replay fails identically" true (fails replay)
  | Error e -> Alcotest.failf "reproducer does not re-parse: %s" e

let test_minimize_rejects_passing () =
  let t = Fault_seq.gen (Rng.create 5) in
  match Fault_seq.minimize (fun _ -> false) t with
  | _ -> Alcotest.fail "minimize accepted a passing input"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "differential"
    [
      ( "engines",
        [
          Alcotest.test_case "parity + feasibility (late)" `Quick
            (test_engine_parity Timer.Late "late");
          Alcotest.test_case "parity + feasibility (early)" `Quick
            (test_engine_parity Timer.Early "early");
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs sweep" `Quick test_jobs_identity_sweep;
          QCheck_alcotest.to_alcotest jobs_identity_prop;
        ] );
      ("eco", [ QCheck_alcotest.to_alcotest eco_identity_prop ]);
      ( "checkpoint",
        [
          Alcotest.test_case "live score = fresh evaluation sweep" `Quick
            test_checkpoint_scores_sweep;
          Alcotest.test_case "scheduled-latency input scored out" `Quick
            test_checkpoint_scores_held;
          Alcotest.test_case "LCB move delta re-times its flip-flops" `Quick
            test_lcb_move_delta_retimes;
        ] );
      ( "resume",
        [
          Alcotest.test_case "identity sweep (3 profiles x 3 algos)" `Quick
            test_resume_identity_sweep;
          QCheck_alcotest.to_alcotest resume_identity_prop;
          Alcotest.test_case "partial writes detected" `Quick test_partial_write_detected;
        ] );
      ( "fault-corpus",
        [
          QCheck_alcotest.to_alcotest pipeline_survives_prop;
          Alcotest.test_case "reproducers round-trip" `Quick test_roundtrip;
          Alcotest.test_case "shrinking is salt-stable" `Quick test_shrink_stability;
          Alcotest.test_case "planted bug shrinks to <= 3 steps" `Quick
            test_minimize_planted_bug;
          Alcotest.test_case "minimize rejects passing input" `Quick
            test_minimize_rejects_passing;
        ] );
    ]
