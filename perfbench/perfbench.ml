(* The repository benchmark: three workloads driven through the library's
   public entry points, end-to-end metrics from an untraced run and a
   per-layer ledger from a traced one. README.md states why each workload
   exists and which end-to-end metric each layer metric should move. *)

module Obs = Css_util.Obs
module Histo = Css_util.Histo
module Json = Css_util.Json
module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Engine = Css_core.Engine
module Evaluator = Css_eval.Evaluator
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Session = Css_flow.Session
module Oracles = Css_oracle.Oracles

let now = Css_util.Wall_clock.now

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* {1 Statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile that still has at least ten samples above it,
   as [(value, percentile)]; with ten samples or fewer, the maximum. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 100)
  else if n <= 10 then (a.(n - 1), 100)
  else
    let k = n - 10 in
    (a.(k - 1), 100 * k / n)

let sum = List.fold_left ( +. ) 0.0
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* {1 The benchmark's own spans}

   Recorded around each call the benchmark makes into the library, kept
   in memory and written when the run ends. The spans of one ECO delta
   share a group id. *)

module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;
    group : int;
    start : float;
    mutable stop : float;
  }

  let enabled = ref false
  let all : span list ref = ref []
  let stack : span list ref = ref []
  let next_id = ref 0
  let group = ref (-1)

  let record name f =
    if not !enabled then f ()
    else begin
      let parent = match !stack with s :: _ -> s.id | [] -> -1 in
      let s = { id = !next_id; name; parent; group = !group; start = now (); stop = nan } in
      incr next_id;
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- now ();
          stack := List.tl !stack;
          all := s :: !all)
        f
    end

  let duration s = s.stop -. s.start

  (* Self time: a span's duration minus the time its children cover.
     Children nest inside their parent and never overlap (one thread). *)
  let self_times () =
    let covered = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace covered s.parent
            (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
      !all;
    List.map
      (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
      !all

  (* Total duration of the spans called [name]. *)
  let total name =
    sum (List.filter_map (fun s -> if s.name = name then Some (duration s) else None) !all)

  let write path =
    let record (s, self) =
      Json.Obj
        [
          ("id", Json.Int s.id);
          ("name", Json.String s.name);
          ("parent", Json.Int s.parent);
          ("group", Json.Int s.group);
          ("start_s", Json.Float s.start);
          ("end_s", Json.Float s.stop);
          ("self_s", Json.Float self);
        ]
    in
    let spans = Json.List (List.rev_map record (self_times ())) in
    Json.write_file path (fun oc -> output_string oc (Json.to_string spans))
end

let span = Spans.record

(* {1 Reading the program's own counters}

   By name, so a counter a later change removes reads as 0 instead of
   breaking the benchmark. *)

let counter obs name =
  match List.assoc_opt name (Obs.counters obs) with Some v -> float_of_int v | None -> 0.0

let histo obs name = List.assoc_opt name (Obs.histograms obs)
let histo_sum obs name = match histo obs name with Some h -> Histo.sum h | None -> 0.0
let histo_p50 obs name = match histo obs name with Some h -> Histo.quantile h 0.5 | None -> 0.0

(* Total seconds in the flow's [*-css] or [*-opt] phase spans. *)
let phase_seconds obs suffix =
  List.fold_left
    (fun acc (path, secs, _) ->
      let last =
        match String.rindex_opt path '/' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      if String.ends_with ~suffix last then acc +. secs else acc)
    0.0 (Obs.spans obs)

let peak_rss_mb () = float_of_int (Css_util.Rusage.peak_rss_bytes ()) /. 1048576.0

(* Seconds the hypervisor ran something else while the benchmark
   machine's CPUs wanted to run (the [steal] column of /proc/stat, all
   CPUs), so a record shows when host contention inflated its wall-clock
   figures. *)
let steal_s () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal /. 100.0
  | _ -> 0.0

(* {1 Results} *)

type quality = { wns_early : float; tns_early : float; wns_late : float; tns_late : float }

let quality_of_report (r : Evaluator.report) =
  {
    wns_early = r.Evaluator.wns_early;
    tns_early = r.Evaluator.tns_early;
    wns_late = r.Evaluator.wns_late;
    tns_late = r.Evaluator.tns_late;
  }

let same_bits a b =
  let eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  eq a.wns_early b.wns_early && eq a.tns_early b.tns_early && eq a.wns_late b.wns_late
  && eq a.tns_late b.tns_late

(* The per-layer metrics every workload reports, in print order; a layer
   a workload does not exercise reads 0. Counts and seconds are per timed
   operation (one flow run, one ECO delta, one pair of [run_ours]). *)
let layer_metrics =
  [
    ("flow.open_s", "s"); ("flow.step_s", "s"); ("flow.finish_s", "s"); ("flow.phases", "count");
    ("flow.css_s", "s"); ("flow.opt_s", "s"); ("flow.unspanned_s", "s");
    ("flow.unspanned_pct", "%"); ("eval.evaluate_s", "s"); ("eval.calls", "count");
    ("netlist.clone_s", "s"); ("netlist.validate_s", "s"); ("sta.timer_build_s", "s");
    ("timer.incremental_updates", "count"); ("timer.update_nodes", "count");
    ("timer.forward_visits", "count"); ("timer.backward_visits", "count");
    ("sched.extract_s", "s"); ("extract.essential.cone_walks", "count");
    ("extract.essential.edges", "count"); ("extract.full_edges", "count");
    ("extract.edge_ratio", "ratio"); ("cache.lookups", "count"); ("cache.hit_ratio", "ratio");
    ("sched.solve_s", "s"); ("sched.apply_s", "s"); ("sched.iterations", "count");
    ("sched.bound_refreshes", "count"); ("sched.alloc_words_p50", "words");
    ("opt.reconnect.attempted", "count"); ("opt.reconnect.reconnected", "count");
    ("opt.reconnect.useful_ratio", "ratio"); ("opt.cell_move.moves_tried", "count");
    ("opt.cell_move.moves_accepted", "count"); ("opt.cell_move.useful_ratio", "ratio");
    ("opt.hpwl_incr_pct", "%"); ("pool.items", "count"); ("pool.batches", "count");
    ("pool.flow_s", "s");
    ("eco.deltas", "count"); ("eco.incremental", "count"); ("eco.rebuild", "count");
    ("eco.move_p50_ms", "ms"); ("eco.latency_p50_ms", "ms"); ("eco.bounds_p50_ms", "ms");
    ("eco.sdc_p50_ms", "ms"); ("eco.replace_p50_ms", "ms"); ("gc.minor_words", "words");
    ("gc.major_collections", "count"); ("trace.ops", "count"); ("trace.overhead_pct", "%");
    ("trace.self_sum_pct", "%");
  ]

type outcome = {
  setup : float list;  (** seconds per set-up *)
  latencies : float list;  (** seconds per timed operation, untraced *)
  rss_mb : float;  (** peak resident set before the output checks ran *)
  quality : quality;
  attempted : int;
  failed : int;
  failures : string list;
  layers : (string * float) list;  (** traced run only *)
  cells : int;  (** cells in the workload's input *)
}

(* What an [obs] held at one moment, so a traced operation's share can
   be read as a difference when the context also saw its set-up. *)
type snap = {
  s_counters : (string * float) list;
  s_sums : (string * float) list;
  s_css : float;
  s_opt : float;
}

let empty_snap = { s_counters = []; s_sums = []; s_css = 0.0; s_opt = 0.0 }

let snap obs =
  {
    s_counters = List.map (fun (n, v) -> (n, float_of_int v)) (Obs.counters obs);
    s_sums = List.map (fun (n, h) -> (n, Histo.sum h)) (Obs.histograms obs);
    s_css = phase_seconds obs "-css";
    s_opt = phase_seconds obs "-opt";
  }

(* Per-layer values [obs] gathered since [since], per operation over
   [ops] operations. [sched.alloc_words_p50] is a quantile and cannot be
   differenced: it covers everything [obs] saw. *)
(* [acc] plus what [obs] gathered between [before] and [after]. *)
let snap_add acc ~before ~after =
  let get k l = Option.value ~default:0.0 (List.assoc_opt k l) in
  let add a b c =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
    |> List.map (fun k -> (k, get k a +. get k b -. get k c))
  in
  {
    s_counters = add acc.s_counters after.s_counters before.s_counters;
    s_sums = add acc.s_sums after.s_sums before.s_sums;
    s_css = acc.s_css +. after.s_css -. before.s_css;
    s_opt = acc.s_opt +. after.s_opt -. before.s_opt;
  }

let obs_layers ?(since = empty_snap) obs ~ops =
  let per x = x /. float_of_int (max 1 ops) in
  let base l name = Option.value ~default:0.0 (List.assoc_opt name l) in
  let count name =
    counter obs name -. base since.s_counters name
  in
  let hsum name = histo_sum obs name -. base since.s_sums name in
  let c name = per (count name) in
  let hits = count "cache.hit" +. count "cache.rehash_hit" in
  let lookups = hits +. count "cache.miss" in
  let tried = count "opt.reconnect.attempted" in
  let moves = count "opt.cell_move.moves_tried" in
  [
    ("flow.css_s", per (phase_seconds obs "-css" -. since.s_css));
    ("flow.opt_s", per (phase_seconds obs "-opt" -. since.s_opt));
    ("timer.incremental_updates", c "timer.incremental_updates");
    ("timer.update_nodes", per (hsum "timer.update_nodes"));
    ("timer.forward_visits", c "timer.forward_visits");
    ("timer.backward_visits", c "timer.backward_visits");
    ("sched.extract_s", per (hsum "sched.extract_s"));
    ("extract.essential.cone_walks", c "extract.essential.cone_walks");
    ("extract.essential.edges", c "extract.essential.edges");
    ("cache.lookups", per lookups);
    ("cache.hit_ratio", ratio hits lookups);
    ("sched.solve_s", per (hsum "sched.solve_s"));
    ("sched.apply_s", per (hsum "sched.apply_s"));
    ("sched.iterations", c "sched.iterations");
    ("sched.bound_refreshes", c "sched.bound_refreshes");
    ("sched.alloc_words_p50", histo_p50 obs "sched.alloc_words");
    ("opt.reconnect.attempted", per tried);
    ("opt.reconnect.reconnected", c "opt.reconnect.reconnected");
    ("opt.reconnect.useful_ratio", ratio (count "opt.reconnect.reconnected") tried);
    ("opt.cell_move.moves_tried", per moves);
    ("opt.cell_move.moves_accepted", c "opt.cell_move.moves_accepted");
    ("opt.cell_move.useful_ratio", ratio (count "opt.cell_move.moves_accepted") moves);
    ("pool.items", c "pool.items");
    ("pool.batches", c "pool.batches");
  ]

(* Runs [f] with GC statistics sampled around it: [(result, minor words,
   major collections)]. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  ( x,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )

(* Per-layer timings the benchmark takes itself, on a fresh copy of the
   workload's input: one [Session.clone], one validation, one timer build
   and one evaluation. *)
let input_layers design =
  let copy, clone_s = time (fun () -> span "netlist.clone" (fun () -> Session.clone design)) in
  let _, validate_s =
    time (fun () -> span "netlist.validate" (fun () -> Css_netlist.Validate.run copy))
  in
  let _, build_s = time (fun () -> span "sta.timer_build" (fun () -> Timer.build copy)) in
  let _, eval_s = time (fun () -> span "eval.evaluate" (fun () -> Evaluator.evaluate copy)) in
  [
    ("netlist.clone_s", clone_s);
    ("netlist.validate_s", validate_s);
    ("sta.timer_build_s", build_s);
    ("eval.evaluate_s", eval_s);
  ]

let overhead ~untraced ~traced =
  [ ("trace.overhead_pct", 100.0 *. (ratio (median traced) (median untraced) -. 1.0)) ]

(* Repeats [f] until [seconds] have passed and at least [min] times. *)
let repeat ~seconds ~min f =
  let t0 = now () in
  let rec go i acc =
    if i >= min && now () -. t0 >= seconds then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []

let sb18 scale = Profile.scale scale (Option.get (Profile.by_name "sb18"))

(* A workload's input: the sb18 preset netlist, every cell moved by a
   seeded offset of up to [jitter] DBU on each axis and anchored there,
   so the moves cost no displacement budget. The seed moves cells rather
   than overriding [Profile.seed]: a new profile seed builds a different
   netlist, and the work per run then differed by up to 30% from seed to
   seed, more than any regression bound can absorb. *)
let jitter = 20.0

let input p ~seed =
  let design = Generator.generate p in
  let rng = Random.State.make [| seed |] in
  Design.iter_cells design (fun c ->
      let pos = Design.cell_pos design c in
      let nudge v = Float.max 0.0 (v +. Random.State.float rng (2.0 *. jitter) -. jitter) in
      let pos = Css_geometry.Point.(make (nudge pos.x) (nudge pos.y)) in
      Design.move_cell design c pos;
      Design.set_cell_orig_pos design c pos);
  design

let checked failures ~attempted ~failed msgs =
  incr attempted;
  if msgs <> [] then begin
    incr failed;
    failures := msgs @ !failures
  end

(* {1 Workload [flow]: one whole session on sb18 x10}

   Open, step phase by phase to the end, finish and close, with the
   product defaults. The timed runs use one job: at two jobs on a
   two-CPU machine the run time tracked the host's steal time (8.7 s at
   0.8 s of steal, 12.6 s at 7 s), so no bound could hold. The traced
   run makes one more run at two jobs for the pool's counters. *)

let flow_config ?(jobs = 1) obs = { Session.default_config with Session.jobs; obs }

(* The evaluator runs at open and after every phase when checkpoints are
   scored, and once more at finish when the final state is scored. *)
let eval_calls (c : Session.config) ~phases =
  (if c.Session.rollback && c.Session.final_eval then 1 + phases else 0)
  + if c.Session.final_eval then 1 else 0

let flow_run ?jobs ~obs design =
  let phases = ref 0 in
  let result, secs =
    time (fun () ->
        span "flow.run" (fun () ->
            let s =
              span "flow.open" (fun () ->
                  Session.open_ ~config:(flow_config ?jobs obs) ~algo:Session.Ours design)
            in
            Fun.protect
              ~finally:(fun () -> span "flow.close" (fun () -> Session.close s))
              (fun () ->
                let rec drive () =
                  match span "flow.step" (fun () -> Session.step s) with
                  | `Phase _ ->
                    incr phases;
                    drive ()
                  | `Done -> ()
                in
                drive ();
                span "flow.finish" (fun () -> Session.finish s))))
  in
  (result, secs, !phases)

let flow_workload ~seed ~seconds ~trace =
  let p = sb18 10.0 in
  let setup = ref [] and cells = ref 0 in
  let generate () =
    Gc.compact ();
    let d, s = time (fun () -> input p ~seed) in
    setup := s :: !setup;
    cells := Design.num_cells d;
    Gc.compact ();
    d
  in
  let untraced () = flow_run ~obs:Obs.null (generate ()) in
  (* [traced] also holds the two-job run, whose answer must not differ *)
  let runs, traced, layers =
    if not trace then (repeat ~seconds ~min:2 (fun _ -> untraced ()), [], [])
    else begin
      Spans.enabled := true;
      let inputs = input_layers (generate ()) in
      Spans.enabled := false;
      let pairs =
        repeat ~seconds ~min:2 (fun _ ->
            let plain = untraced () in
            let d = generate () in
            let obs = Obs.create () in
            Spans.enabled := true;
            let run, minor, major = with_gc (fun () -> flow_run ~obs d) in
            Spans.enabled := false;
            (plain, run, (obs, minor, major)))
      in
      (* spans off: the ledger below covers the one-job runs only *)
      let pool_obs = Obs.create () in
      let ((_, pool_s, _) as pool_run) = flow_run ~jobs:2 ~obs:pool_obs (generate ()) in
      let runs = List.map (fun (r, _, _) -> r) pairs in
      let traced = List.map (fun (_, r, _) -> r) pairs in
      let _, _, (obs, minor, major) = List.hd pairs in
      let ops = List.length traced in
      let per x = x /. float_of_int ops in
      let flow_s = median (List.map (fun (_, s, _) -> s) runs) in
      let open_s = per (Spans.total "flow.open") and step_s = per (Spans.total "flow.step") in
      let finish_s = per (Spans.total "flow.finish" +. Spans.total "flow.close") in
      let from_obs = obs_layers obs ~ops:1 in
      let unspanned =
        open_s +. step_s +. finish_s -. List.assoc "flow.css_s" from_obs
        -. List.assoc "flow.opt_s" from_obs
      in
      let self_sum =
        per
          (sum
             (List.filter_map
                (fun (s, self) ->
                  if String.starts_with ~prefix:"flow." s.Spans.name then Some self else None)
                (Spans.self_times ())))
      in
      let r, _, phases = List.hd traced in
      ( runs,
        traced @ [ pool_run ],
        [
          ("pool.items", counter pool_obs "pool.items");
          ("pool.batches", counter pool_obs "pool.batches");
          ("pool.flow_s", pool_s);
        ]
        @ inputs @ from_obs
        @ [
            ("flow.open_s", open_s);
            ("flow.step_s", step_s);
            ("flow.finish_s", finish_s);
            ("flow.phases", float_of_int phases);
            ("flow.unspanned_s", unspanned);
            ("flow.unspanned_pct", 100.0 *. ratio unspanned flow_s);
            ("eval.calls", float_of_int (eval_calls (flow_config obs) ~phases));
            ("opt.hpwl_incr_pct", r.Session.hpwl_increase_pct);
            ("gc.minor_words", minor);
            ("gc.major_collections", major);
            ("trace.ops", float_of_int ops);
            ("trace.self_sum_pct", 100.0 *. ratio self_sum flow_s);
          ]
        @ overhead ~untraced:(List.map (fun (_, s, _) -> s) runs)
            ~traced:(List.map (fun (_, s, _) -> s) traced) )
    end
  in
  let rss_mb = peak_rss_mb () in
  let all = runs @ traced in
  let first, _, _ = List.hd all in
  let q0 = quality_of_report first.Session.report in
  let failures = ref [] and attempted = ref 0 and failed = ref 0 in
  List.iteri
    (fun i ((r : Session.result), _, _) ->
      let msgs =
        List.map (fun e -> Printf.sprintf "run %d: constraint error: %s" i e)
          r.Session.report.Evaluator.constraint_errors
        @ (let reason = r.Session.stop_reason in
           if
             List.exists
               (fun prefix -> String.starts_with ~prefix reason)
               [ "budget"; "deadline"; "interrupted" ]
           then [ Printf.sprintf "run %d: stopped by %s" i reason ]
           else [])
        @
        if
          same_bits q0 (quality_of_report r.Session.report)
          && Int64.equal
               (Int64.bits_of_float first.Session.hpwl_increase_pct)
               (Int64.bits_of_float r.Session.hpwl_increase_pct)
        then []
        else [ Printf.sprintf "run %d: slack or HPWL differs from run 0" i ]
      in
      checked failures ~attempted ~failed msgs)
    all;
  {
    setup = !setup;
    latencies = List.map (fun (_, s, _) -> s) runs;
    rss_mb;
    quality = q0;
    attempted = !attempted;
    failed = !failed;
    failures = !failures;
    layers;
    cells = !cells;
  }

(* {1 Workload [eco]: single-delta requests against a warm session on
   sb18 x3}

   The daemon's session defaults: answers come from the live timer, with
   no evaluator scoring and no rollback. *)

let eco_config obs =
  { Session.default_config with Session.final_eval = false; rollback = false; jobs = 1; obs }

let delta_kind = function
  | Session.Move_cell _ -> "move"
  | Session.Set_latency _ -> "latency"
  | Session.Set_bounds _ -> "bounds"
  | Session.Apply_sdc _ -> "sdc"
  | Session.Replace_design _ -> "replace"

(* [Oracles.random_deltas] draws placement nudges, latency overrides,
   window tightenings and bounds-only SDC; every [replace_every]-th
   request instead replaces the netlist with its own text, which forces
   the from-scratch rebuild path. *)
let replace_every = 16

let next_delta rng s i =
  let design = Session.design s in
  if i mod replace_every = replace_every - 1 then
    Session.Replace_design (Css_netlist.Io.to_string design)
  else List.hd (Oracles.random_deltas rng design ~n:1)

let latencies_of design =
  Design.ffs design |> Array.to_list
  |> List.map (fun ff ->
         (Design.cell_name design ff, Int64.bits_of_float (Design.scheduled_latency design ff)))
  |> List.sort compare

type answer = (Session.delta_outcome, Css_util.Diag.t list) result
type delta_sample = { kind : string; secs : float; answer : answer }

type eco_run = {
  e_setup : float list;
  e_cells : int;
  e_samples : delta_sample list;
  e_first : Session.delta * (string * int64) list * answer;
      (** the first delta, the latencies its answer left, and the answer *)
  e_layers : (string * float) list;  (** [obs]'s share of the delta loop *)
  e_minor : float;
  e_major : float;
}

(* Each session answers [session_deltas] requests and is then closed,
   and each session [k] starts from its own placement,
   [input ~seed:(seed + k * session_seed_step)]. The input and the first
   few edits set the cost of every later answer in a session (medians
   25% apart between two seeds), so a run averages over many sessions
   rather than following one. *)
let session_deltas = 8
let session_seed_step = 1_000_003

(* Opens and finishes a session (the set-up), applies [session_deltas]
   deltas in a closed loop, closes it and opens the next, for [seconds].
   The set-ups, and what [obs] counted during them, are left out of the
   samples and the layers. *)
let eco_session ~p ~seed ~seconds ~obs =
  let rng = Random.State.make [| seed; 1 |] in
  let setups = ref [] and cells = ref 0 and first = ref None in
  let excluded = ref empty_snap and minor = ref 0.0 and major = ref 0.0 in
  let t0 = now () in
  let rec sessions i acc =
    if i >= 12 && now () -. t0 >= seconds then List.rev acc
    else begin
      Gc.compact ();
      let before = snap obs in
      let s, setup_s =
        time (fun () ->
            let k = i / session_deltas in
            let design = input p ~seed:(seed + (k * session_seed_step)) in
            let s =
              span "eco.open" (fun () ->
                  Session.open_ ~config:(eco_config obs) ~algo:Session.Ours design)
            in
            ignore (span "eco.finish" (fun () -> Session.finish s));
            s)
      in
      excluded := snap_add !excluded ~before ~after:(snap obs);
      setups := setup_s :: !setups;
      cells := Design.num_cells (Session.design s);
      let acc =
        Fun.protect
          ~finally:(fun () -> Session.close s)
          (fun () ->
            List.fold_left
              (fun acc i ->
                let delta = next_delta rng s i in
                Spans.group := i;
                let (answer, secs), mi, ma =
                  with_gc (fun () ->
                      time (fun () ->
                          span "eco.apply_delta" (fun () -> Session.apply_delta s [ delta ])))
                in
                Spans.group := -1;
                minor := !minor +. mi;
                major := !major +. ma;
                if i = 0 then first := Some (delta, latencies_of (Session.design s), answer);
                { kind = delta_kind delta; secs; answer } :: acc)
              acc
              (List.init session_deltas (fun k -> i + k)))
      in
      sessions (i + session_deltas) acc
    end
  in
  let samples = sessions 0 [] in
  {
    e_setup = List.rev !setups;
    e_cells = !cells;
    e_samples = samples;
    e_first = Option.get !first;
    e_layers = obs_layers ~since:!excluded obs ~ops:(List.length samples);
    e_minor = !minor;
    e_major = !major;
  }

(* The answer to the first delta must be bitwise the answer of a
   from-scratch session on [Session.stage]'s post-delta design, starting
   from the same finished state. Returns the failures and the time the
   reference took to set up (the same work as the warm set-up). *)
let eco_reference ~p ~seed (delta, warm, answer) =
  let config = eco_config Obs.null in
  let cold, setup_s =
    time (fun () ->
        let cold = input p ~seed in
        let s = Session.open_ ~config ~algo:Session.Ours cold in
        Fun.protect ~finally:(fun () -> Session.close s) (fun () -> ignore (Session.finish s));
        cold)
  in
  let msgs =
    match answer with
    | Error _ -> [ "first delta rejected" ]
    | Ok warm_answer -> (
      match
        Session.stage ~validate:config.Session.validate ~repair:config.Session.repair
          ~timer:config.Session.timer cold [ delta ]
      with
      | Error _ -> [ "reference stage rejected the first delta" ]
      | Ok sg ->
        let s =
          Session.open_
            ~config:{ config with Session.timer = sg.Session.sg_timer }
            ~algo:Session.Ours sg.Session.sg_design
        in
        let cold_answer =
          Fun.protect ~finally:(fun () -> Session.close s) (fun () -> Session.finish s)
        in
        let report (r : Session.result) = quality_of_report r.Session.report in
        if
          latencies_of sg.Session.sg_design = warm
          && same_bits (report warm_answer.Session.d_result) (report cold_answer)
        then []
        else [ "first delta: warm answer differs from a from-scratch session" ])
  in
  (msgs, setup_s)

let eco_workload ~seed ~seconds ~trace =
  let p = sb18 3.0 in
  let half = if trace then seconds /. 2.0 else seconds in
  let plain = eco_session ~p ~seed ~seconds:half ~obs:Obs.null in
  let rss_mb = peak_rss_mb () in
  let samples = plain.e_samples in
  let traced =
    if not trace then None
    else begin
      Spans.enabled := true;
      let inputs = input_layers (input p ~seed) in
      let obs = Obs.create () in
      let r = eco_session ~p ~seed ~seconds:half ~obs in
      Spans.enabled := false;
      Some (inputs, r)
    end
  in
  let failures = ref [] and attempted = ref 0 and failed = ref 0 in
  let reference, setup1 = eco_reference ~p ~seed plain.e_first in
  let all = samples @ match traced with Some (_, t) -> t.e_samples | None -> [] in
  List.iteri
    (fun i x ->
      checked failures ~attempted ~failed
        (match x.answer with
        | Ok _ -> if i = 0 then reference else []
        | Error ds ->
          [
            Printf.sprintf "delta %d (%s) rejected: %s" i x.kind
              (String.concat "; " (List.map Css_util.Diag.to_string ds));
          ]))
    all;
  let quality =
    match (List.hd samples).answer with
    | Ok o -> quality_of_report o.Session.d_result.Session.report
    | Error _ -> { wns_early = nan; tns_early = nan; wns_late = nan; tns_late = nan }
  in
  let latencies = List.map (fun x -> x.secs) samples in
  let layers, setup =
    match traced with
    | None -> ([], setup1 :: plain.e_setup)
    | Some (inputs, traced) ->
      let t = traced.e_samples and from_obs = traced.e_layers in
      let ops = float_of_int (List.length t) in
      let count mode =
        float_of_int
          (List.length
             (List.filter
                (fun x -> match x.answer with Ok o -> o.Session.d_mode = mode | Error _ -> false)
                t))
      in
      let kind_p50 k =
        1000.0 *. median (List.filter_map (fun x -> if x.kind = k then Some x.secs else None) t)
      in
      let delta_s = sum (List.map (fun x -> x.secs) t) /. ops in
      let unspanned =
        delta_s -. List.assoc "flow.css_s" from_obs -. List.assoc "flow.opt_s" from_obs
      in
      ( inputs @ from_obs
        @ [
            ("flow.unspanned_s", unspanned);
            ("flow.unspanned_pct", 100.0 *. ratio unspanned delta_s);
            ("eco.deltas", ops);
            ("eco.incremental", count `Incremental);
            ("eco.rebuild", count `Rebuild);
            ("eco.move_p50_ms", kind_p50 "move");
            ("eco.latency_p50_ms", kind_p50 "latency");
            ("eco.bounds_p50_ms", kind_p50 "bounds");
            ("eco.sdc_p50_ms", kind_p50 "sdc");
            ("eco.replace_p50_ms", kind_p50 "replace");
            ("gc.minor_words", traced.e_minor /. ops);
            ("gc.major_collections", traced.e_major /. ops);
            ("trace.ops", ops);
            ( "trace.self_sum_pct",
              100.0 *. ratio delta_s (sum latencies /. float_of_int (List.length latencies)) );
          ]
        @ overhead ~untraced:latencies ~traced:(List.map (fun x -> x.secs) t),
        (setup1 :: plain.e_setup) @ traced.e_setup )
  in
  {
    setup;
    latencies;
    rss_mb;
    quality;
    attempted = !attempted;
    failed = !failed;
    failures = !failures;
    layers;
    cells = plain.e_cells;
  }

(* {1 Workload [css]: Algorithm 1 alone on sb18 x30}

   A fresh timer per run, then [run_ours] at the late corner and at the
   early corner: one job, no macromodel cache. *)

type css_sample = {
  c_setup : float;
  c_secs : float;
  c_quality : quality;
  c_edges : int;  (** essential edges extracted at both corners *)
  c_since : snap;  (** [obs] after the set-up *)
  c_minor : float;
  c_major : float;
}

let css_run ~p ~seed ~obs =
  Gc.compact ();
  let (design, timer), setup_s =
    time (fun () ->
        let design = input p ~seed in
        (design, span "sta.timer_build" (fun () -> Timer.build ~obs design)))
  in
  Gc.compact ();
  let since = snap obs in
  let ((late, early), secs), minor, major =
    with_gc (fun () ->
        time (fun () ->
            span "css.run" (fun () ->
                let late =
                  span "core.run_ours_late" (fun () ->
                      Engine.run_ours ~obs timer ~corner:Timer.Late)
                in
                let early =
                  span "core.run_ours_early" (fun () ->
                      Engine.run_ours ~obs timer ~corner:Timer.Early)
                in
                (late, early))))
  in
  let edges (_, stats) = stats.Css_seqgraph.Extract.edges_extracted in
  ( design,
    {
      c_setup = setup_s;
      c_secs = secs;
      c_quality =
        {
          wns_early = Timer.wns timer Timer.Early;
          tns_early = Timer.tns timer Timer.Early;
          wns_late = Timer.wns timer Timer.Late;
          tns_late = Timer.tns timer Timer.Late;
        };
      c_edges = edges late + edges early;
      c_since = since;
      c_minor = minor;
      c_major = major;
    } )

(* Edges of the whole sequential graph at both corners, from the
   exhaustive extraction on an unscheduled copy of the input. *)
let full_edges p ~seed =
  let timer = Timer.build (input p ~seed) in
  List.fold_left
    (fun acc corner ->
      acc + (snd (Engine.full timer ~corner)).Css_seqgraph.Extract.edges_extracted)
    0 [ Timer.Late; Timer.Early ]

let css_workload ~seed ~seconds ~trace =
  let p = sb18 30.0 in
  let half = if trace then seconds /. 2.0 else seconds in
  (* only the first run's design is kept, for the feasibility check *)
  let design0 = ref None in
  let runs =
    repeat ~seconds:half ~min:2 (fun i ->
        let design, r = css_run ~p ~seed ~obs:Obs.null in
        if i = 0 then design0 := Some design;
        r)
  in
  let rss_mb = peak_rss_mb () in
  let design0 = Option.get !design0 in
  let failures = ref [] and attempted = ref 0 and failed = ref 0 in
  let run0 = List.hd runs in
  checked failures ~attempted ~failed (Oracles.check_feasible design0 ~corner:Timer.Late);
  let traced, layers =
    if not trace then ([], [])
    else begin
      let inputs =
        let x = input_layers (input p ~seed) in
        List.filter (fun (n, _) -> n <> "sta.timer_build_s") x
      in
      let obs_runs =
        repeat ~seconds:half ~min:1 (fun _ ->
            let obs = Obs.create () in
            Spans.enabled := true;
            let _, r = css_run ~p ~seed ~obs in
            Spans.enabled := false;
            (obs, r))
      in
      let obs, first = List.hd obs_runs in
      let full = full_edges p ~seed in
      let traced = List.map snd obs_runs in
      let ops = float_of_int (List.length traced) in
      let css_s = median (List.map (fun r -> r.c_secs) runs) in
      let self_sum =
        sum
          (List.filter_map
             (fun (s, self) ->
               if s.Spans.name = "css.run" || String.starts_with ~prefix:"core." s.Spans.name then
                 Some self
               else None)
             (Spans.self_times ()))
        /. ops
      in
      ( traced,
        inputs @ obs_layers ~since:first.c_since obs ~ops:1
        @ [
            ("sta.timer_build_s", Spans.total "sta.timer_build" /. ops);
            ("extract.full_edges", float_of_int full);
            ("extract.edge_ratio", ratio (float_of_int first.c_edges) (float_of_int full));
            ("gc.minor_words", first.c_minor);
            ("gc.major_collections", first.c_major);
            ("trace.ops", ops);
            ("trace.self_sum_pct", 100.0 *. ratio self_sum css_s);
          ]
        @ overhead
            ~untraced:(List.map (fun r -> r.c_secs) runs)
            ~traced:(List.map (fun r -> r.c_secs) traced) )
    end
  in
  List.iteri
    (fun i r ->
      checked failures ~attempted ~failed
        (if same_bits run0.c_quality r.c_quality then []
         else [ Printf.sprintf "run %d: slacks differ from run 0" i ]))
    (runs @ traced);
  {
    setup = List.map (fun r -> r.c_setup) (runs @ traced);
    latencies = List.map (fun r -> r.c_secs) runs;
    rss_mb;
    quality = run0.c_quality;
    attempted = !attempted;
    failed = !failed;
    failures = !failures;
    layers;
    cells = Design.num_cells design0;
  }

(* {1 Entry point} *)

let end_to_end (o : outcome) =
  let tail_s, _ = tail o.latencies in
  [
    ("setup_s", median o.setup, "s");
    ("peak_rss_mb", o.rss_mb, "MB");
    ("latency_p50_ms", 1000.0 *. median o.latencies, "ms");
    ("latency_tail_ms", 1000.0 *. tail_s, "ms");
    ("wns_late_ps", 0.0 -. o.quality.wns_late, "ps");
    ("tns_late_ps", 0.0 -. o.quality.tns_late, "ps");
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME flow | eco | css");
      ("--seed", Arg.Set_int seed, "N workload seed (design generator and delta stream)");
      ("--seconds", Arg.Set_float seconds, "S how long the timed loop runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "flow" -> flow_workload
    | "eco" -> eco_workload
    | "css" -> css_workload
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  let traced = !trace = 1 in
  let steal0 = steal_s () in
  let o = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  let steal = steal_s () -. steal0 in
  let metrics =
    if traced then
      List.map
        (fun (name, unit) -> (name, Option.value ~default:0.0 (List.assoc_opt name o.layers), unit))
        layer_metrics
    else end_to_end o
  in
  let metrics =
    if traced then
      metrics
      @ [
          ("quality.wns_early_ps", 0.0 -. o.quality.wns_early, "ps");
          ("quality.tns_early_ps", 0.0 -. o.quality.tns_early, "ps");
        ]
    else metrics
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-30s %14.4f %s\n" name v unit) metrics;
  if traced then begin
    if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
    Spans.write (Printf.sprintf ".perfbench/spans-%s-%d.json" !workload !seed)
  end;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) o.failures;
  let _, pct = tail o.latencies in
  let record =
    Json.Obj
      ([
         ("workload", Json.String !workload);
         ("seed", Json.Int !seed);
         ("seconds", Json.Float !seconds);
         ("trace", Json.Bool traced);
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("dune_profile", Json.String Build_info.profile);
         ("samples", Json.Int (List.length o.latencies));
         ("samples_ms", Json.List (List.map (fun x -> Json.Float (1000.0 *. x)) o.latencies));
         ("tail_percentile", Json.Int pct);
         ("setups", Json.Int (List.length o.setup));
         ("fail_ratio", Json.Float (ratio (float_of_int o.failed) (float_of_int o.attempted)));
         ("host_steal_s", Json.Float steal);
       ]
      @ [ ("cells", Json.Int o.cells) ])
  in
  print_endline ("record " ^ Json.to_string record);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]));
  exit (if o.failed = 0 then 0 else 1)
