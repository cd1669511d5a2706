(* Integration tests: the four end-to-end flows on generated designs —
   the relationships Table I reports must hold in miniature. *)

module Design = Css_netlist.Design
module Evaluator = Css_eval.Evaluator
module Session = Css_flow.Session
module Persist = Css_flow.Persist
module Budget = Css_util.Budget
module Diag = Css_util.Diag
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

let small_profile () = Profile.scale 0.35 (Option.get (Profile.by_name "sb18"))

let base_design = lazy (Generator.generate (small_profile ()))

let run algo =
  let design = Session.clone (Lazy.force base_design) in
  Session.run ~algo design

let ours = lazy (run Session.Ours)
let ours_early = lazy (run Session.Ours_early)
let iccss = lazy (run Session.Iccss_plus)
let fpm = lazy (run Session.Fpm)

let test_clone_is_deep () =
  let d = Lazy.force base_design in
  let c = Session.clone d in
  let ff = (Design.ffs c).(0) in
  Design.set_scheduled_latency c ff 99.0;
  checkb "original untouched" true (Design.scheduled_latency d (Design.ffs d).(0) = 0.0)

let test_flow_improves_early () =
  let before = Evaluator.evaluate (Session.clone (Lazy.force base_design)) in
  let r = Lazy.force ours in
  checkb "early TNS improved" true (r.Session.report.Evaluator.tns_early > before.Evaluator.tns_early);
  checkb "early WNS improved" true (r.Session.report.Evaluator.wns_early > before.Evaluator.wns_early)

let test_flow_improves_late () =
  let before = Evaluator.evaluate (Session.clone (Lazy.force base_design)) in
  let r = Lazy.force ours in
  checkb "late TNS improved" true (r.Session.report.Evaluator.tns_late > before.Evaluator.tns_late)

let test_flow_respects_constraints () =
  checkb "ours constraints" true ((Lazy.force ours).Session.report.Evaluator.constraint_errors = []);
  checkb "iccss constraints" true ((Lazy.force iccss).Session.report.Evaluator.constraint_errors = []);
  checkb "fpm constraints" true ((Lazy.force fpm).Session.report.Evaluator.constraint_errors = [])

let test_ours_vs_iccss_same_quality () =
  let a = Lazy.force ours and b = Lazy.force iccss in
  let close x y tol = Float.abs (x -. y) <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
  checkb "late TNS within 10%" true
    (close a.Session.report.Evaluator.tns_late b.Session.report.Evaluator.tns_late 0.10);
  checkb "early TNS comparable" true
    (close a.Session.report.Evaluator.tns_early b.Session.report.Evaluator.tns_early 0.25
    || Float.abs (a.Session.report.Evaluator.tns_early -. b.Session.report.Evaluator.tns_early) < 25.0)

let test_ours_extracts_fewer_edges_than_iccss () =
  (* compared per CSS phase on the same timer state — the flow-level
     totals only separate at benchmark scale (see bench/EXPERIMENTS) *)
  let design1 = Session.clone (Lazy.force base_design) in
  let t1 = Css_sta.Timer.build design1 in
  let _, s1 = Css_core.Engine.run_ours t1 ~corner:Css_sta.Timer.Late in
  let design2 = Session.clone (Lazy.force base_design) in
  let t2 = Css_sta.Timer.build design2 in
  let _, s2 = Css_baselines.Iccss_plus.run t2 ~corner:Css_sta.Timer.Late in
  checkb "fewer edges (the -90% claim, in shape)" true
    (s1.Css_seqgraph.Extract.edges_extracted < s2.Css_seqgraph.Extract.edges_extracted)

let test_extracted_below_full_graph () =
  (* the heart of the paper: the iterative engine's partial graph stays
     a strict subset of the full sequential graph, and the obs counters
     agree with the engine's own statistics *)
  let design = Session.clone (Lazy.force base_design) in
  let obs = Css_util.Obs.create () in
  let timer = Css_sta.Timer.build ~obs design in
  let _, s = Css_core.Engine.run_ours ~obs timer ~corner:Css_sta.Timer.Late in
  let design_full = Session.clone (Lazy.force base_design) in
  let timer_full = Css_sta.Timer.build design_full in
  let verts = Css_seqgraph.Vertex.of_design design_full in
  let sf =
    Css_seqgraph.Extract.stats
      (Css_seqgraph.Extract.run ~engine:Css_seqgraph.Extract.Full timer_full verts
         ~corner:Css_sta.Timer.Late)
  in
  let extracted = s.Css_seqgraph.Extract.edges_extracted in
  let full = sf.Css_seqgraph.Extract.edges_extracted in
  checkb "full graph is non-trivial" true (full > 0);
  checkb "extracted < full" true (extracted < full);
  checkb "counter matches engine stats" true
    (List.assoc_opt "extract.essential.edges" (Css_util.Obs.counters obs) = Some extracted)

let test_ours_early_beats_fpm () =
  let a = Lazy.force ours_early and b = Lazy.force fpm in
  checkb "early TNS at least as good" true
    (a.Session.report.Evaluator.tns_early >= b.Session.report.Evaluator.tns_early -. 1e-6);
  checkb "FPM walked more of the gate-level graph" true (b.Session.cone_nodes > a.Session.cone_nodes)

let test_ours_early_leaves_late_untouched () =
  let before = Evaluator.evaluate (Session.clone (Lazy.force base_design)) in
  let r = Lazy.force ours_early in
  (* early-only optimization must not significantly disturb late TNS
     (Table I: Ours-Early's late columns match the baseline's) *)
  let rel =
    Float.abs (r.Session.report.Evaluator.tns_late -. before.Evaluator.tns_late)
    /. Float.max 1.0 (Float.abs before.Evaluator.tns_late)
  in
  checkb "late TNS within 5% of baseline" true (rel < 0.05)

let test_trace_structure () =
  let r = Lazy.force ours in
  checkb "trace non-empty" true (List.length r.Session.trace > 1);
  (match r.Session.trace with
  | first :: _ -> checkb "starts with the initial snapshot" true (first.Session.phase = "start")
  | [] -> Alcotest.fail "empty trace");
  checkb "contains css phases" true
    (List.exists (fun p -> p.Session.phase = "early-css") r.Session.trace);
  checkb "contains opt phases" true
    (List.exists (fun p -> p.Session.phase = "early-opt") r.Session.trace)

let test_metrics_populated () =
  let r = Lazy.force ours in
  checkb "css time measured" true (r.Session.css_seconds >= 0.0);
  checkb "total >= css + opt" true
    (r.Session.total_seconds +. 1e-3 >= r.Session.css_seconds +. r.Session.opt_seconds);
  checkb "edges counted" true (r.Session.extracted_edges > 0);
  checkb "iterations counted" true (r.Session.css_iterations > 0);
  checkb "hpwl increase small" true
    (r.Session.hpwl_increase_pct >= 0.0 && r.Session.hpwl_increase_pct < 25.0)

let test_flow_with_resize () =
  let design = Session.clone (Lazy.force base_design) in
  let config = { Session.default_config with Session.use_resize = true } in
  let r = Session.run ~config ~algo:Session.Ours design in
  let plain = Lazy.force ours in
  checkb "constraints hold with sizing" true (r.Session.report.Evaluator.constraint_errors = []);
  checkb "sizing does not lose quality" true
    (r.Session.report.Evaluator.tns_late >= plain.Session.report.Evaluator.tns_late -. 1e-6)

let test_flow_with_cts () =
  let design = Session.clone (Lazy.force base_design) in
  let config = { Session.default_config with Session.use_cts = true } in
  let before = Evaluator.evaluate (Session.clone (Lazy.force base_design)) in
  let r = Session.run ~config ~algo:Session.Ours design in
  checkb "constraints hold with CTS" true (r.Session.report.Evaluator.constraint_errors = []);
  checkb "CTS flow still improves late" true
    (r.Session.report.Evaluator.tns_late > before.Evaluator.tns_late);
  checkb "CTS flow still improves early" true
    (r.Session.report.Evaluator.tns_early >= before.Evaluator.tns_early)

(* rollback after CTS guidance: restoring a checkpoint resyncs every
   cell, including the LCBs the guidance added after the timer's graph
   was built *)
let test_cts_rollback_finishes () =
  List.iter
    (fun algo ->
      let design = Generator.generate (Option.get (Profile.by_name "sb5")) in
      let config = { Session.default_config with Session.use_cts = true } in
      let s = Session.open_ ~config ~algo design in
      let r = Fun.protect ~finally:(fun () -> Session.close s) (fun () -> Session.finish s) in
      checkb
        (Session.algo_name algo ^ ": constraints hold after CTS")
        true
        (r.Session.report.Evaluator.constraint_errors = []))
    [ Session.Ours; Session.Iccss_plus ]

(* checkpoint scoring and the final evaluation each sit in their own
   span: one score at open and one per phase, one final evaluation *)
let test_eval_spans () =
  let obs = Css_util.Obs.create () in
  let config = { Session.default_config with Session.obs } in
  let s = Session.open_ ~config ~algo:Session.Ours (Session.clone (Lazy.force base_design)) in
  let phases = ref 0 in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      let rec drive () =
        match Session.step s with
        | `Phase _ ->
          incr phases;
          drive ()
        | `Done -> ()
      in
      drive ();
      ignore (Session.finish s));
  let count name =
    List.fold_left
      (fun acc (path, _, n) ->
        if path = name || String.ends_with ~suffix:("/" ^ name) path then acc + n else acc)
      0 (Css_util.Obs.spans obs)
  in
  checkb "ran phases" true (!phases > 0);
  checki "checkpoint-score spans" (!phases + 1) (count "checkpoint-score");
  checki "final-eval spans" 1 (count "final-eval")

(* {2 Durable checkpoints, budgets and resume} *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "css-flow-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

let test_persist_roundtrip () =
  let dir = fresh_dir () in
  let design = Session.clone (Lazy.force base_design) in
  let config = { Session.default_config with Session.checkpoint_dir = Some dir; Session.rounds = 1 } in
  let r = Session.run ~config ~algo:Session.Ours design in
  checkb "run completed" true (r.Session.stop_reason <> "interrupted");
  match Persist.load ~dir with
  | Error ds -> Alcotest.failf "load failed: %s" (match ds with d :: _ -> d.Diag.message | [] -> "?")
  | Ok ps ->
    checks "algo" "Ours" ps.Persist.ps_algo;
    checks "design name" (Design.name design) ps.Persist.ps_design;
    checkb "phases recorded" true (ps.Persist.ps_phases_done >= 1);
    checkb "best carried" true (ps.Persist.ps_best <> None);
    checkb "engines carried" true (ps.Persist.ps_engines <> []);
    checkb "trace carried" true (List.length ps.Persist.ps_trace > 1);
    checki "anchors sized" (Design.num_cells design) (Array.length ps.Persist.ps_anchor_x)

let load_code dir =
  match Persist.load ~dir with
  | Ok _ -> "ok"
  | Error (d :: _) -> d.Diag.code
  | Error [] -> "no-diag"

let test_checkpoint_corruption () =
  let dir = fresh_dir () in
  let design = Generator.micro () in
  let config = { Session.default_config with Session.checkpoint_dir = Some dir; Session.rounds = 1 } in
  ignore (Session.run ~config ~algo:Session.Ours design);
  let file = Persist.path ~dir in
  let pristine = In_channel.with_open_bin file In_channel.input_all in
  let write s = Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s) in
  checks "pristine loads" "ok" (load_code dir);
  (* truncation: cut mid-structure *)
  write (String.sub pristine 0 (String.length pristine / 2));
  checks "truncated" "CKPT-004" (load_code dir);
  (* bit rot: flip one byte inside the design-text blob *)
  let flipped = Bytes.of_string pristine in
  let target = String.length pristine - 20 in
  Bytes.set flipped target (if Bytes.get flipped target = 'x' then 'y' else 'x');
  write (Bytes.to_string flipped);
  let code = load_code dir in
  checkb "bitflip rejected (CKPT-003 or CKPT-005)" true (code = "CKPT-003" || code = "CKPT-005");
  (* bad magic *)
  write ("not-a-checkpoint 1\n" ^ pristine);
  checks "bad magic" "CKPT-002" (load_code dir);
  (* trailing garbage after the end marker *)
  write (pristine ^ "junk\n");
  checks "trailing bytes" "CKPT-005" (load_code dir);
  (* missing file *)
  Sys.remove file;
  checks "missing" "CKPT-001" (load_code dir)

(* {3 Older checkpoint formats}

   Format 2 carried a cone-cache section ([cache N], then four lines per
   entry) between the engine snapshots and the end marker; format 1 had
   none; format 3 (current) has none. Older files are synthesized from a
   current one: same body, the cache section spliced in for format 2,
   the header version set and the body rehashed (FNV-1a 64). *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let legacy_checkpoint current ~version ~cache =
  let after_line i = String.index_from current i '\n' + 1 in
  let start = after_line (after_line 0) in
  let body = String.sub current start (String.length current - start) in
  let end_marker = "end\n" in
  checkb "body ends with the end marker" true (String.ends_with ~suffix:end_marker body);
  let body =
    String.sub body 0 (String.length body - String.length end_marker) ^ cache ^ end_marker
  in
  Printf.sprintf "css-checkpoint %d\nhash %016Lx\n%s" version (fnv1a64 body) body

(* format-2 cache entries: key, hash, visited, member and interface
   counts; members; interface nodes; interface delays *)
let v2_entry_a = "c 44 00c0ffee00c0ffee 5 3 2\nm 11 12 13\nn 14 15\ndl 12.5 30.25\n"
let v2_entry_b = "c 61 0123456789abcdef 2 2 1\nm 15 16\nn 17\ndl 7\n"

let latency_bits design =
  Array.map (fun ff -> Int64.bits_of_float (Design.scheduled_latency design ff)) (Design.ffs design)

let test_legacy_checkpoints_resume () =
  let config = { Session.default_config with Session.rounds = 1 } in
  let reference = Session.clone (Lazy.force base_design) in
  ignore (Session.run ~config ~algo:Session.Ours reference);
  let dir = fresh_dir () in
  ignore
    (Css_oracle.Oracles.run_killed
       ~config:{ config with Session.checkpoint_dir = Some dir }
       ~kill_after_phase:1 ~algo:Session.Ours
       (Session.clone (Lazy.force base_design)));
  let file = Persist.path ~dir in
  let current = In_channel.with_open_bin file In_channel.input_all in
  let write s = Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s) in
  List.iter
    (fun (label, version, cache) ->
      write (legacy_checkpoint current ~version ~cache);
      match
        Session.resume ~config:{ config with Session.checkpoint_dir = Some dir }
          ~library:(Design.library reference) ~dir ()
      with
      | Error ds ->
        Alcotest.failf "%s: resume failed: %s" label
          (match ds with d :: _ -> d.Diag.message | [] -> "?")
      | Ok (r, resumed) ->
        checkb (label ^ ": resumed") true r.Session.resumed;
        checkb (label ^ ": bitwise equal to the uninterrupted run") true
          (latency_bits resumed = latency_bits reference))
    [ ("format 1", 1, ""); ("format 2", 2, "cache 2\n" ^ v2_entry_a ^ v2_entry_b) ];
  (* a format-2 cache section announcing more entries than it holds *)
  write (legacy_checkpoint current ~version:2 ~cache:("cache 2\n" ^ v2_entry_a));
  checks "truncated cache section" "CKPT-005" (load_code dir)

let test_budget_ladder () =
  (* a soft-tripped wall budget (soft threshold ~0, limit far away) must
     walk the ladder one rung per phase boundary and end with a
     structured budget stop, never worse than its best checkpoint *)
  let design = Session.clone (Lazy.force base_design) in
  let before = Evaluator.evaluate (Session.clone (Lazy.force base_design)) in
  let config =
    {
      Session.default_config with
      Session.budget = { Budget.no_limits with Budget.wall_seconds = Some 3600.0; soft_frac = 1e-9 };
    }
  in
  let r = Session.run ~config ~algo:Session.Ours design in
  checks "stop reason" "budget-wall" r.Session.stop_reason;
  checkb "ladder walked" true (List.length r.Session.degradations >= 2);
  checkb "ladder steps named" true
    (List.mem "shrink-ring(wall)" r.Session.degradations
    && List.mem "early-stop(wall)" r.Session.degradations);
  checkb "no worse than input" true
    (Float.min r.Session.report.Evaluator.wns_early r.Session.report.Evaluator.wns_late
    >= Float.min before.Evaluator.wns_early before.Evaluator.wns_late -. 1e-6)

let test_hard_budget_stops () =
  let design = Session.clone (Lazy.force base_design) in
  let config =
    {
      Session.default_config with
      Session.budget = { Budget.no_limits with Budget.wall_seconds = Some 1e-9 };
    }
  in
  let r = Session.run ~config ~algo:Session.Ours design in
  checks "stop reason" "budget-wall" r.Session.stop_reason;
  checkb "no degradation steps on a hard stop" true (r.Session.degradations = [])

(* The stall watchdog: a hook that undoes every phase (placement, clock
   binding, scheduled latencies) keeps the worst slack flat. The first
   phase sets the watchdog's baseline; the run then stops as "stalled"
   after exactly 4 phases without progress, long before its rounds run
   out. *)
let test_stall_stops_flat_run () =
  let design = Session.clone (Lazy.force base_design) in
  let ffs = Design.ffs design in
  let positions = Array.init (Design.num_cells design) (Design.cell_pos design) in
  let lcbs = Array.map (Design.lcb_of_ff design) ffs in
  let latencies = Array.map (Design.scheduled_latency design) ffs in
  let phases = ref 0 in
  let undo ~round:_ ~phase:_ d =
    incr phases;
    Array.iteri (Design.move_cell d) positions;
    Array.iteri
      (fun i ff ->
        if Design.lcb_of_ff d ff <> lcbs.(i) then Design.reconnect_ff_to_lcb d ~ff ~lcb:lcbs.(i);
        Design.set_scheduled_latency d ff latencies.(i))
      ffs
  in
  let config = { Session.default_config with Session.rounds = 10; on_phase_end = Some undo } in
  let r = Session.run ~config ~algo:Session.Ours_early design in
  checks "stop reason" "stalled" r.Session.stop_reason;
  checki "phases after the baseline one" 4 (!phases - 1)

let test_interrupt_persists_and_resumes () =
  let dir = fresh_dir () in
  let design = Session.clone (Lazy.force base_design) in
  let config = { Session.default_config with Session.checkpoint_dir = Some dir } in
  let r = Css_oracle.Oracles.run_killed ~config ~kill_after_phase:1 ~algo:Session.Ours design in
  checks "stop reason" "interrupted" r.Session.stop_reason;
  match Persist.load ~dir with
  | Error _ -> Alcotest.fail "no checkpoint after interrupt"
  | Ok ps -> (
    checki "exactly one phase persisted" 1 ps.Persist.ps_phases_done;
    match
      Session.resume
        ~config:{ Session.default_config with Session.checkpoint_dir = Some dir }
        ~library:(Design.library design) ~dir ()
    with
    | Error ds ->
      Alcotest.failf "resume failed: %s" (match ds with d :: _ -> d.Diag.message | [] -> "?")
    | Ok (r2, _) ->
      checkb "resumed flag" true r2.Session.resumed;
      checkb "resumed run finished" true (r2.Session.stop_reason <> "interrupted");
      checkb "resumed run accumulated more phases" true
        (r2.Session.css_iterations >= r.Session.css_iterations))

let test_resume_from_garbage_dir () =
  let dir = fresh_dir () in
  match Session.resume ~library:Css_liberty.Library.default ~dir () with
  | Ok _ -> Alcotest.fail "resume from an empty dir must fail"
  | Error (d :: _) -> checks "code" "CKPT-001" d.Diag.code
  | Error [] -> Alcotest.fail "no diagnostics"

let test_flow_on_micro () =
  let design = Generator.micro () in
  let r = Session.run ~algo:Session.Ours design in
  let before = Evaluator.evaluate (Generator.micro ()) in
  checkb "micro early improved" true
    (r.Session.report.Evaluator.tns_early > before.Evaluator.tns_early);
  checkb "micro late improved" true (r.Session.report.Evaluator.tns_late > before.Evaluator.tns_late)

let () =
  Alcotest.run "flow"
    [
      ( "flow",
        [
          Alcotest.test_case "clone is deep" `Quick test_clone_is_deep;
          Alcotest.test_case "improves early" `Quick test_flow_improves_early;
          Alcotest.test_case "improves late" `Quick test_flow_improves_late;
          Alcotest.test_case "constraints hold" `Quick test_flow_respects_constraints;
          Alcotest.test_case "ours = iccss quality" `Quick test_ours_vs_iccss_same_quality;
          Alcotest.test_case "ours extracts fewer edges" `Quick
            test_ours_extracts_fewer_edges_than_iccss;
          Alcotest.test_case "extracted below full graph" `Quick
            test_extracted_below_full_graph;
          Alcotest.test_case "ours-early beats fpm" `Quick test_ours_early_beats_fpm;
          Alcotest.test_case "early-only leaves late" `Quick test_ours_early_leaves_late_untouched;
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          Alcotest.test_case "metrics populated" `Quick test_metrics_populated;
          Alcotest.test_case "resize flag" `Quick test_flow_with_resize;
          Alcotest.test_case "cts flag" `Quick test_flow_with_cts;
          Alcotest.test_case "micro end-to-end" `Quick test_flow_on_micro;
          Alcotest.test_case "rollback after CTS guidance" `Quick test_cts_rollback_finishes;
          Alcotest.test_case "checkpoint-score and final-eval spans" `Quick test_eval_spans;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "persist roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "checkpoint corruption codes" `Quick test_checkpoint_corruption;
          Alcotest.test_case "budget degradation ladder" `Quick test_budget_ladder;
          Alcotest.test_case "hard budget stops" `Quick test_hard_budget_stops;
          Alcotest.test_case "interrupt persists and resumes" `Quick
            test_interrupt_persists_and_resumes;
          Alcotest.test_case "resume from garbage dir" `Quick test_resume_from_garbage_dir;
          Alcotest.test_case "format 1 and 2 checkpoints resume" `Quick
            test_legacy_checkpoints_resume;
          Alcotest.test_case "stall stops a flat run" `Quick test_stall_stops_flat_run;
        ] );
    ]
