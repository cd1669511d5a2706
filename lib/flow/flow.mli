(** End-to-end slack optimization flows — the rows of Table I.

    Each flow interleaves clock skew scheduling (CSS) with physical slack
    optimization (OPT: LCB-FF reconnection + cell movement), in the
    paper's staging: early slack optimization under late constraints,
    then late optimization under early constraints, for a configurable
    number of rounds (Fig. 8 shows this interleaving on superblue18).

    Metrics follow Table I's columns: final early/late WNS/TNS as scored
    by the independent evaluator, CSS and OPT wall-clock seconds, the
    number of extracted sequential edges, and the HPWL increase.

    {2 Hardening}

    The flow is guarded end to end (see [docs/ROBUSTNESS.md]):

    - {b ingress validation}: {!Css_netlist.Validate.run} checks and (by
      default) repairs the design before any timing is built; a fatally
      degenerate design raises {!Css_netlist.Validate.Invalid} instead
      of corrupting a run;
    - {b watchdogs}: a flow-level wall-clock deadline, a per-phase
      deadline forwarded to the scheduler, and a cross-phase stall
      detector ([stall_phases] consecutive phases without worst-slack
      improvement);
    - {b checkpoint / rollback}: after validation and after every phase
      the physically realized state is scored on the contest's terms
      ({!Session.score}: read off the live timer, bitwise a fresh
      evaluation) and the best-scoring checkpoint (latencies, positions,
      masters, FF-LCB binding) is kept; if the run ends worse than its best checkpoint,
      the design is restored and the result reports [rolled_back =
      true]. A run can therefore never end worse than its input;
    - {b resource governance}: an optional {!Css_util.Budget} (wall
      clock + resident set) polled at phase and scheduler-iteration
      boundaries. Soft pressure walks a degradation ladder — shrink the
      scheduler's best-state ring, drop the worker pool, switch to the
      cheapest extraction, early-stop — one rung per poll; a hard limit
      stops the flow with its best result and [stop_reason =
      "budget-wall"/"budget-rss"];
    - {b crash-safe persistence}: with [checkpoint_dir] set, the full
      resumable state is written atomically ({!Persist}) after every
      completed phase, and {!resume} continues a killed run to a final
      result bitwise identical to an uninterrupted one. [handle_signals]
      routes SIGINT/SIGTERM to a cooperative stop whose last act is that
      same durable checkpoint.

    {2 Sessions}

    [run]/[resume] are thin wrappers over {!Session} — open a one-shot
    session, drain it, close it. Long-running embedders (the [css_serve]
    daemon) use {!Session} directly to keep the design, timer and
    extraction state warm between requests and answer deltas
    incrementally ({!Session.apply_delta}). All types below are
    equations over their {!Session} namesakes, so the two surfaces mix
    freely. *)

type algo = Session.algo =
  | Ours  (** iterative essential extraction, both corners *)
  | Ours_early  (** early corner only (the FPM comparison row) *)
  | Iccss_plus  (** the modified IC-CSS baseline, both corners *)
  | Fpm  (** fast predictive useful skew, early only *)

val algo_name : algo -> string

(** One sample of the optimization trajectory, for Fig. 8. *)
type trace_point = Session.trace_point = {
  round : int;
  phase : string;  (** "early-css", "early-opt", "late-css", "late-opt" *)
  iter : int;  (** scheduler iteration within the phase; 0 for OPT points *)
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
}

type result = Session.result = {
  algo : string;
  benchmark : string;
  report : Css_eval.Evaluator.report;  (** final, physically realized state *)
  css_seconds : float;
  opt_seconds : float;
  total_seconds : float;
  extracted_edges : int;
  cone_nodes : int;
  css_iterations : int;
  hpwl_increase_pct : float;  (** vs. the design at flow start *)
  stop_reason : string;
      (** why the round loop ended: ["clean"] (no violations left),
          ["max-rounds"], ["stalled"], ["deadline"], ["interrupted"]
          (SIGINT/SIGTERM or a debug interrupt), or
          ["budget-wall"]/["budget-rss"] (hard budget limit) *)
  rolled_back : bool;
      (** the final state scored worse than an earlier checkpoint and the
          design was restored to that checkpoint; [report] is the
          checkpoint's evaluation *)
  degradations : string list;
      (** chronological ladder steps taken under soft budget pressure,
          as ["<step>(<reason>)"] — e.g. ["drop-pool(wall)"]; empty when
          the budget never tripped *)
  resumed : bool;  (** this result came from {!resume}, not a fresh run *)
  validation : Css_util.Diag.t list;
      (** everything ingress validation found (repaired or warned);
          empty when [validate = false] or the design was pristine *)
  trace : trace_point list;  (** chronological *)
}

type config = Session.config = {
  rounds : int;  (** CSS+OPT rounds per corner (default 3) *)
  timer : Css_sta.Timer.config;  (** analysis corner setup (derates, uncertainties) *)
  scheduler : Css_core.Scheduler.config;
  reconnect : Css_opt.Reconnect.config;
  cell_move : Css_opt.Cell_move.config;
  use_resize : bool;
      (** also run the gate-sizing passes in each OPT phase (the paper's
          "logic path optimization" extension; default false) *)
  use_cts : bool;
      (** realize latency targets by inserting new LCBs via
          {!Css_opt.Cts_guide} before falling back to reconnection
          (the paper's "guide clock tree synthesis" extension;
          default false) *)
  validate : bool;
      (** run {!Css_netlist.Validate.run} at flow entry (default true);
          raises {!Css_netlist.Validate.Invalid} on fatal degeneracy *)
  repair : bool;
      (** let ingress validation repair what it safely can
          (default true); with [false] repairable findings are fatal *)
  rollback : bool;
      (** checkpoint after every phase and restore the best-scoring
          state if the run ends worse (default true) *)
  final_eval : bool;
      (** score the final state with the independent evaluator (default
          true). [false] synthesizes [report] from the live timer
          instead — cheaper, but rollback scoring is disabled and
          constraint auditing is skipped; see
          {!Session.config.final_eval} *)
  eco_fallback_frac : float;
      (** {!Session.apply_delta}'s from-scratch fallback threshold as a
          fraction of all cells (default 0.25); unused by one-shot
          runs *)
  deadline_seconds : float option;
      (** flow-level wall-clock budget; checked between phases and
          forwarded (as the remaining budget) to the scheduler so a
          phase in flight also stops (default [None]) *)
  phase_deadline_seconds : float option;
      (** per-phase budget forwarded to
          {!Css_core.Scheduler.config.deadline_seconds} when the
          scheduler config leaves it [None] (default [None]) *)
  stall_phases : int;
      (** stop after this many consecutive phases without worst-slack
          improvement at either corner (default 4) *)
  on_phase_end : (round:int -> phase:string -> Css_netlist.Design.t -> unit) option;
      (** test/fault-injection hook called after each phase completes,
          before the phase is scored for checkpointing; the flow resyncs
          the timer afterwards, so the hook may mutate placement and
          latencies freely (default [None]) *)
  obs : Css_util.Obs.t;
      (** observability sink threaded through the timer, the extraction
          engines, the scheduler and the OPT passes. The flow itself
          contributes ["<phase>-css"] / ["<phase>-opt"] spans, one
          ["flow.point"] snapshot per trajectory sample, the
          [opt.reconnect.*] / [opt.cell_move.*] counters, and the
          [flow.checkpoints] / [flow.rollbacks] counters.
          Default {!Css_util.Obs.null} (zero overhead). *)
  tracer : Css_util.Tracer.t;
      (** streaming event tracer threaded into the worker pool (one
          ["pool.chunk"] span per claimed chunk, on the worker's own
          track) and the budget governor (["budget.wall_s"] /
          ["budget.rss_bytes"] counter lanes). Stop reasons, degradation
          rungs and checkpoint-write durations reach the tracer as
          instants via [obs] snapshot mirroring, so attach the same
          tracer to [obs] with {!Css_util.Obs.attach_tracer}. The flow
          flushes (but does not close) the tracer on every exit path,
          including signal interrupts. Default {!Css_util.Tracer.null}
          (zero overhead). *)
  jobs : int;
      (** worker domains for parallel extraction (default 1 =
          sequential). With [jobs > 1] the flow owns a
          {!Css_util.Pool.t} shared by all extraction engines and shuts
          it down at exit; results are bit-identical at any value (see
          {!Css_seqgraph.Extract.run}). *)
  budget : Css_util.Budget.limits;
      (** wall-clock / RSS budget driving the degradation ladder and the
          hard stop (default {!Css_util.Budget.no_limits} = no budget,
          zero polling overhead) *)
  checkpoint_dir : string option;
      (** write a durable {!Persist} checkpoint here after every
          completed phase; {!resume} continues from it
          (default [None] = no persistence) *)
  handle_signals : bool;
      (** route SIGINT/SIGTERM to the cooperative interrupt flag for the
          duration of the run (default false — embedders that own signal
          dispatch call {!Persist.request_interrupt} themselves) *)
  debug_interrupt_after_phase : int option;
      (** fault injection: raise the interrupt flag once this many
          phases completed — a clean phase-boundary kill (default
          [None]; tests only) *)
  debug_interrupt_after_iteration : int option;
      (** fault injection: raise the interrupt flag after this many
          scheduler [should_stop] polls — a mid-phase kill (default
          [None]; tests only) *)
}

val default_config : config

(** [run ?config ~algo design] executes the flow, mutating [design], and
    scores the final state with the evaluator.
    @raise Css_netlist.Validate.Invalid if [config.validate] and the
    design is fatally degenerate (after repair, when enabled). *)
val run : ?config:config -> algo:algo -> Css_netlist.Design.t -> result

(** [resume ?config ~library ~dir ()] loads the durable checkpoint under
    [dir] and continues the interrupted run to completion, returning the
    result (with [resumed = true]) and the continued design. Because
    checkpoints are written only at completed-phase boundaries and every
    phase is deterministic, the final scheduled latencies are bitwise
    those of the same run uninterrupted.

    [config] supplies everything a checkpoint does not carry (evaluator
    and scheduler settings, budgets, [checkpoint_dir] for further
    persistence — typically the same config the original run used);
    [config.rounds] is overridden by the checkpoint's own horizon. On
    [Error], the diagnostics carry the [CKPT-*] codes of {!Persist}
    ([CKPT-006] when the checkpoint names an unknown algorithm or its
    design does not parse against [library]). *)
val resume :
  ?config:config ->
  library:Css_liberty.Library.t ->
  dir:string ->
  unit ->
  (result * Css_netlist.Design.t, Css_util.Diag.t list) Stdlib.result

(** [clone design] deep-copies a design through its textual form. The
    copy's original-position anchors are its *current* positions, so
    clone before moving cells. *)
val clone : Css_netlist.Design.t -> Css_netlist.Design.t
