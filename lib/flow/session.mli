(** Resident clock skew scheduling sessions — the session-first surface
    behind both {!Flow} and the [css_serve] daemon.

    A session owns everything the paper's iterative loop keeps warm
    between latency changes: the loaded design, the incremental timer,
    the extraction engines with their partially extracted sequential
    graph, the scheduler's best-k ring, the degradation rung and the
    worker pool. {!open_} loads a design without scheduling anything;
    {!step} advances the CSS+OPT interleaving one phase at a time;
    {!finish} drains the remaining phases and scores the run;
    {!apply_delta} edits the design in place, re-propagates only the
    affected cones (the paper's Update step, applied across requests)
    and re-schedules; {!close} releases the pool and flushes the tracer.

    One-shot use is [Flow.run], which is exactly
    [open_ |> finish |> close]. Long-running use — the CSS-as-a-service
    story — keeps the session open and feeds it deltas: each
    {!apply_delta} answers from the warm timer instead of rebuilding,
    with a from-scratch fallback rung when the delta invalidates too
    much ({!config.eco_fallback_frac}, netlist ECOs, analysis-corner
    changes).

    Determinism contract: a drained session computes bitwise what the
    historical single-shot flow computed, and an {!apply_delta} answer
    is bitwise the answer of a fresh [Flow.run] on the post-delta design
    given the same configuration — the warm incrementally-updated timer
    is exact, not approximate ({!Css_oracle.Oracles.check_eco_identity}
    enforces this). All hardening described in {!Flow} (validation,
    watchdogs, checkpoint/rollback, budgets, persistence) applies
    per-run inside the session. *)

type t

(** {1 Types shared with {!Flow}}

    {!Flow} re-exports all of these; see its documentation for the
    field-by-field story. *)

type algo =
  | Ours  (** iterative essential extraction, both corners *)
  | Ours_early  (** early corner only (the FPM comparison row) *)
  | Iccss_plus  (** the modified IC-CSS baseline, both corners *)
  | Fpm  (** fast predictive useful skew, early only *)

val algo_name : algo -> string

(** [algo_of_name s] inverts {!algo_name}; [None] on unknown names. *)
val algo_of_name : string -> algo option

type trace_point = {
  round : int;
  phase : string;
  iter : int;
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
}

type result = {
  algo : string;
  benchmark : string;
  report : Css_eval.Evaluator.report;
  css_seconds : float;
  opt_seconds : float;
  total_seconds : float;
  extracted_edges : int;
  cone_nodes : int;
  css_iterations : int;
  hpwl_increase_pct : float;
  stop_reason : string;
  rolled_back : bool;
  degradations : string list;
  resumed : bool;
  validation : Css_util.Diag.t list;
  trace : trace_point list;
}

type config = {
  rounds : int;
  timer : Css_sta.Timer.config;
  scheduler : Css_core.Scheduler.config;
  reconnect : Css_opt.Reconnect.config;
  cell_move : Css_opt.Cell_move.config;
  use_resize : bool;
  use_cts : bool;
  validate : bool;
  repair : bool;
  rollback : bool;
  final_eval : bool;
      (** score the final state with the independent evaluator (default
          true — the paper-scoring contract). [false] synthesizes the
          report from the live timer instead: cheaper (no fresh timer
          build per request), but that report counts virtual latencies
          and skips constraint auditing, so it is not on the contest
          scale the rollback checkpoints are scored on — rollback
          scoring is disabled with it ([rolled_back] is always false).
          Services answering delta requests set [false]; final sign-off
          keeps [true]. *)
  eco_fallback_frac : float;
      (** {!apply_delta} falls back to a from-scratch timer rebuild when
          a delta batch touches more than this fraction of all cells
          (default 0.25); the incremental path must stay cheaper than
          what it replaces *)
  deadline_seconds : float option;
  phase_deadline_seconds : float option;
  stall_phases : int;
  on_phase_end : (round:int -> phase:string -> Css_netlist.Design.t -> unit) option;
  obs : Css_util.Obs.t;
  tracer : Css_util.Tracer.t;
  jobs : int;
  budget : Css_util.Budget.limits;
  checkpoint_dir : string option;
  handle_signals : bool;
      (** consumed by [Flow.run]/[Flow.resume] (they wrap the drive in
          {!Persist.with_signal_handlers}); the session itself never
          installs handlers — a daemon owns signal dispatch via
          {!Persist.install_handlers} *)
  debug_interrupt_after_phase : int option;
  debug_interrupt_after_iteration : int option;
}

val default_config : config

(** [clone design] deep-copies a design through its textual form. The
    copy's original-position anchors are its *current* positions, so
    clone before moving cells. *)
val clone : Css_netlist.Design.t -> Css_netlist.Design.t

(** {1 Lifecycle} *)

(** [open_ ?config ~algo design] validates (per [config]), builds the
    timer and the worker pool, takes the start checkpoint — and runs no
    phases: the session holds the design at its input state, ready to
    {!step} or {!apply_delta}. The session owns [design] (mutating it
    through scheduling) until {!close}.
    @raise Css_netlist.Validate.Invalid if [config.validate] and the
    design is fatally degenerate (after repair, when enabled). *)
val open_ : ?config:config -> algo:algo -> Css_netlist.Design.t -> t

(** [step t] advances the run by one phase. [`Phase label] says a phase
    boundary was crossed (label ["round-<n>-early"/"-late"] or ["hold"];
    the phase may have been vetoed by a watchdog, in which case the next
    call returns [`Done]); [`Done] says the run is complete and
    {!finish} will not schedule further. Stepping to [`Done] is bitwise
    the historical uninterrupted flow loop. *)
val step : t -> [ `Phase of string | `Done ]

(** [finish t] drains the remaining phases and folds the run into a
    {!result} (evaluator-scored and rollback-checked when configured).
    The session stays open: a later {!apply_delta} starts the next run
    from the finished state. *)
val finish : t -> result

(** [close t] shuts down the worker pool and flushes the tracer.
    Idempotent and safe on any exit path (including from a signal
    handler's cleanup); every other operation on a closed session
    raises [Invalid_argument]. *)
val close : t -> unit

val is_closed : t -> bool

(** {1 Accessors} *)

(** The live design. Owned by the session: treat as read-only and
    {!clone} before mutating outside {!apply_delta}. *)
val design : t -> Css_netlist.Design.t

(** [score t] is the contest report of the current state, as rollback
    checkpoints are scored: {!Css_eval.Evaluator.score} on the live
    timer, bitwise [Evaluator.evaluate (design t)] with the session's
    timer setup ({!Css_oracle.Oracles.check_checkpoint_scores} enforces
    this). Scheduled latencies still held by flip-flops are taken out
    for the read and put back, so the session's state is unchanged. *)
val score : t -> Css_eval.Evaluator.report

(** The session's current configuration. [Apply_sdc] deltas can change
    the [timer] sub-config; everything else is as given to {!open_}. *)
val config : t -> config

val algo : t -> algo

(** {1 Delta requests (incremental ECO)} *)

type delta =
  | Move_cell of { cell : string; x : float; y : float }
      (** placement ECO: move one cell (by name) to an absolute position *)
  | Set_latency of { ff : string; latency : float }
      (** override one flip-flop's scheduled latency *)
  | Set_bounds of { ff : string; lo : float; hi : float }
      (** tighten one flip-flop's Eq. (5) latency window *)
  | Apply_sdc of string
      (** SDC-lite constraint text: latency windows apply per
          flip-flop; uncertainty/derate knobs fold into the timer
          configuration (forcing the from-scratch fallback) *)
  | Replace_design of string
      (** small netlist ECO: a full design text replacing the session's
          design, run through {!Css_netlist.Validate} per the session
          config *)

type delta_mode =
  [ `Incremental  (** only the affected cones were re-propagated *)
  | `Rebuild  (** from-scratch fallback: fresh timer and vertex registry *)
  ]

type delta_outcome = {
  d_result : result;  (** the re-schedule on the post-delta design *)
  d_mode : delta_mode;
  d_touched : int;  (** cells/windows the batch edited *)
  d_seconds : float;  (** wall-clock for the whole request *)
  d_diags : Css_util.Diag.t list;  (** non-fatal findings (SDC/ECO warnings) *)
}

(** [apply_delta t deltas] applies the batch atomically — every delta is
    resolved and validated first ([Error] diagnostics with [ECO-*],
    [SDC-*], [IO-*] or [VAL-*] codes leave the design untouched) — then
    re-propagates ([`Incremental]: only the cones the edits reach;
    [`Rebuild]: from scratch, when the batch replaced the netlist,
    changed the timer configuration, or touched more than
    [eco_fallback_frac] of all cells) and re-schedules to completion.

    The resulting latencies are bitwise those of a fresh [Flow.run] on
    the post-delta design with the session's configuration. Small deltas
    skip whole-design re-validation (the design was validated at
    {!open_} and name/value checks cover the edit itself);
    [Replace_design] always revalidates per the session config. *)
val apply_delta :
  t -> delta list -> (delta_outcome, Css_util.Diag.t list) Stdlib.result

(** What a staged delta batch did to a design. *)
type staged = {
  sg_design : Css_netlist.Design.t;  (** the post-delta design *)
  sg_moved : Css_netlist.Design.cell_id list;  (** cells moved (deduped, sorted) *)
  sg_relat : Css_netlist.Design.cell_id list;  (** FFs with edited latencies *)
  sg_touched : int;  (** total edits (= num_cells after a replace) *)
  sg_replaced : bool;  (** a [Replace_design] took effect *)
  sg_timer : Css_sta.Timer.config;  (** timer config after SDC folding *)
  sg_diags : Css_util.Diag.t list;  (** non-fatal findings *)
}

(** [stage ?validate ?repair ~timer design deltas] is the pure delta
    application {!apply_delta} uses, exposed so oracles can mirror a
    session's edits onto a clone and compare against a from-scratch run:
    resolves every delta against [design] (two-phase: a rejected batch
    mutates nothing), applies the edits, and reports what changed plus
    the folded timer configuration. Does not touch any timer. *)
val stage :
  ?validate:bool ->
  ?repair:bool ->
  timer:Css_sta.Timer.config ->
  Css_netlist.Design.t ->
  delta list ->
  (staged, Css_util.Diag.t list) Stdlib.result

(** {1 Persistence}

    Sessions are crash-safe through the same {!Persist} checkpoints the
    one-shot flow uses: {!snapshot}/{!save} capture the full resumable
    state at the current phase boundary, and {!reopen} rebuilds a
    session that continues bitwise — a killed daemon resumes its
    sessions exactly where their last completed phase left them. *)

(** [snapshot t] is the full durable state at the current boundary. *)
val snapshot : t -> Persist.state

(** [save t ~dir] writes {!snapshot} atomically under [dir].
    @raise Sys_error when the directory cannot be created or written. *)
val save : t -> dir:string -> unit

(** [reopen ?config ~library ~dir ()] loads the checkpoint under [dir]
    into a fresh session positioned mid-run: {!finish} continues to the
    bitwise result of the uninterrupted run, and the session then keeps
    serving deltas. [config.rounds] is overridden by the checkpoint's
    horizon. Errors carry {!Persist}'s [CKPT-*] codes. *)
val reopen :
  ?config:config ->
  library:Css_liberty.Library.t ->
  dir:string ->
  unit ->
  (t, Css_util.Diag.t list) Stdlib.result
