(** Durable, crash-safe flow checkpoints, and the cooperative interrupt
    flag that triggers them.

    {2 File format}

    One checkpoint lives at [<dir>/checkpoint.ckpt] (see {!path}): a
    versioned header, an FNV-1a 64 content hash, then a line-oriented
    body carrying the complete resumable flow state — loop position,
    watchdog counters, the serialized design (via {!Css_netlist.Io}'s
    shortest-round-trip floats, so reloading perturbs no bit), the best
    in-memory checkpoint, and one {!Css_seqgraph.Extract.snapshot} per
    live extraction engine. The format is documented in
    [docs/ROBUSTNESS.md]. {!save} writes version 3; {!load} also reads
    versions 1 and 2 (a version-2 cone-cache section is shape-checked,
    then discarded).

    {2 Crash safety}

    {!save} writes to a temporary file, fsyncs, then renames over the
    final name — a crash at any instant leaves either the previous
    complete checkpoint or the new complete one, never a torn file.
    {!load} rejects damaged files with stable [CKPT-*]
    {!Css_util.Diag.t} codes:

    - [CKPT-001] — file unreadable / missing
    - [CKPT-002] — bad magic or unsupported version
    - [CKPT-003] — content hash mismatch (bit rot, partial overwrite)
    - [CKPT-004] — truncated (short read mid-structure)
    - [CKPT-005] — malformed section or field
    - [CKPT-006] — reserved for run/checkpoint mismatch, emitted by
      {!Session.resume} when the checkpoint belongs to a different
      design/algorithm than the one requested *)

(** {1 Cooperative interruption} *)

(** [interrupted ()] reads the process-global interrupt flag. The flow
    polls it at scheduler-iteration and phase boundaries. *)
val interrupted : unit -> bool

(** [request_interrupt ()] sets the flag (what the signal handlers do;
    also the fault-injection path for tests). Async-signal-safe. *)
val request_interrupt : unit -> unit

(** [clear_interrupt ()] resets the flag — call before starting a run
    that should not inherit a stale interrupt. *)
val clear_interrupt : unit -> unit

(** Previously installed dispositions, for {!uninstall_handlers}. *)
type handlers

(** [install_handlers ?signals ?on_signal ()] routes [signals] (default
    SIGINT and SIGTERM) to {!request_interrupt}, then to [on_signal]
    (passed the OCaml signal number), and returns the previous
    dispositions. Signals a platform rejects are skipped silently.

    This is the explicit form for processes owning several flows at
    once: the [css_serve] daemon installs ONE handler whose [on_signal]
    flushes every live session's checkpoint and the tracer ring, instead
    of each run racing to install its own. OCaml runs [Signal_handle]
    callbacks at safepoints of the main execution (not as C async
    handlers), so [on_signal] may allocate and write files — but it
    preempts arbitrary main-thread code, so it must only touch state
    that stays consistent at every safepoint (atomic flags, idempotent
    cleanup like {!Css_util.Pool.shutdown}, atomic checkpoint writes). *)
val install_handlers :
  ?signals:int list -> ?on_signal:(int -> unit) -> unit -> handlers

(** [uninstall_handlers h] restores the dispositions [h] saved. *)
val uninstall_handlers : handlers -> unit

(** [with_signal_handlers f] runs [f] with SIGINT and SIGTERM routed to
    {!request_interrupt} — {!install_handlers} with defaults — restoring
    the previous handlers afterwards (even when [f] raises). On
    platforms without these signals [f] just runs. *)
val with_signal_handlers : (unit -> 'a) -> 'a

(** {1 Checkpoint state} *)

(** One flow trajectory sample ({!Session.trace_point}, decoupled to keep
    this module independent of [Session]). *)
type trace_entry = {
  te_round : int;
  te_phase : string;
  te_iter : int;
  te_wns_early : float;
  te_tns_early : float;
  te_wns_late : float;
  te_tns_late : float;
}

(** The flow's best in-memory checkpoint, persisted field-for-field.
    Restore arrays are indexed by the dense cell ids the design-text
    round-trip preserves; the evaluator report is stored (not
    re-derived) so a resumed run's final rollback compares the exact
    floats an uninterrupted run would. *)
type best = {
  pb_label : string;
  pb_ffs : int array;
  pb_latencies : float array;  (** scheduled, per entry of [pb_ffs] *)
  pb_lcb_of : int array;  (** -1 when unresolved *)
  pb_x : float array;  (** position per cell id *)
  pb_y : float array;
  pb_masters : string array;  (** master name per cell id *)
  pb_report : Css_eval.Evaluator.report;
}

(** Everything needed to continue a flow run from a completed-phase
    boundary. Partial phases are never represented: the flow persists
    only after a phase fully completes, and a resumed run re-executes
    any phase that was in flight when the process died — determinism
    makes the redo bitwise-identical. *)
type state = {
  ps_algo : string;  (** {!Session.algo_name} of the running algorithm *)
  ps_design : string;  (** design name, for mismatch detection *)
  ps_rounds : int;  (** configured round count at save time *)
  ps_phases_done : int;  (** completed main-loop phases *)
  ps_hold_done : bool;  (** the final hold touch-up phase completed *)
  ps_iterations : int;
  ps_edges : int;  (** non-engine (FPM) edge accumulator *)
  ps_cones : int;
  ps_stall_best : float;
  ps_stall_count : int;
  ps_stop : string option;
  ps_hpwl_before : float;  (** HPWL of the original input design *)
  ps_anchor_x : float array;
      (** max-displacement anchor per cell id ([Design.cell_orig_pos] of
          the interrupted run): a reparsed design re-anchors at its
          parsed positions, so the legality reference must travel *)
  ps_anchor_y : float array;
  ps_css_seconds : float;  (** accumulated before this checkpoint *)
  ps_opt_seconds : float;
  ps_rung : int;  (** degradation-ladder position *)
  ps_degradations : string list;  (** chronological ladder steps *)
  ps_trace : trace_entry list;  (** chronological *)
  ps_best : best option;  (** best in-memory checkpoint, if any *)
  ps_design_text : string;  (** the current design, serialized *)
  ps_engines : (string * Css_seqgraph.Extract.snapshot) list;
      (** live engine snapshots keyed ["ours-early"], ["ours-late"],
          ["iccss-early"], ["iccss-late"] *)
}

(** [path ~dir] is [<dir>/checkpoint.ckpt]. *)
val path : dir:string -> string

(** [save ~dir st] atomically replaces the checkpoint (tmp + fsync +
    rename), creating [dir] if missing. @raise Sys_error when the
    directory cannot be created or written. *)
val save : dir:string -> state -> unit

(** [load ~dir] reads and verifies the checkpoint. On [Error], the
    single diagnostic carries one of the [CKPT-*] codes above. *)
val load : dir:string -> (state, Css_util.Diag.t list) result
