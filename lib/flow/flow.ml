(* One-shot wrappers over the session-first surface: [run] opens a
   session, drains it and closes it; [resume] does the same from a
   durable checkpoint. All machinery lives in {!Session}. *)

type algo = Session.algo =
  | Ours
  | Ours_early
  | Iccss_plus
  | Fpm

let algo_name = Session.algo_name

type trace_point = Session.trace_point = {
  round : int;
  phase : string;
  iter : int;
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
}

type result = Session.result = {
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

type config = Session.config = {
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
  eco_fallback_frac : float;
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
  debug_interrupt_after_phase : int option;
  debug_interrupt_after_iteration : int option;
}

let default_config = Session.default_config
let clone = Session.clone

let drive ~(config : config) go =
  if config.handle_signals then Persist.with_signal_handlers go else go ()

(* Drain to the result, releasing the pool and flushing the tracer on
   every exit path — the one-shot contract the historical flow kept. *)
let finish_and_close s =
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () -> Session.finish s)

let run ?(config = default_config) ~algo design =
  drive ~config (fun () ->
      let s = Session.open_ ~config ~algo design in
      finish_and_close s)

let resume ?(config = default_config) ~library ~dir () =
  drive ~config (fun () ->
      match Session.reopen ~config ~library ~dir () with
      | Error _ as e -> e
      | Ok s ->
        let design = Session.design s in
        let result = finish_and_close s in
        Ok (result, design))
