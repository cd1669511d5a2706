module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Point = Css_geometry.Point

type report = {
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  num_early_violations : int;
  num_late_violations : int;
  hpwl : float;
  constraint_errors : string list;
}

type config = {
  lcb_fanout_limit : int;
  max_displacement : float;
  include_scheduled : bool;
  timer : Timer.config;
}

let default_config =
  {
    lcb_fanout_limit = 50;
    max_displacement = 400.0;
    include_scheduled = false;
    timer = Timer.default_config;
  }

let check_constraints cfg design =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iter
    (fun lcb ->
      let fanout = Design.lcb_fanout design lcb in
      if fanout > cfg.lcb_fanout_limit then
        err "LCB %s fanout %d exceeds limit %d" (Design.cell_name design lcb) fanout
          cfg.lcb_fanout_limit)
    (Design.lcbs design);
  Design.iter_cells design (fun c ->
      let moved = Point.manhattan (Design.cell_pos design c) (Design.cell_orig_pos design c) in
      if moved > cfg.max_displacement +. 1e-9 then
        err "cell %s displaced %.1f DBU, budget %.1f" (Design.cell_name design c) moved
          cfg.max_displacement);
  Array.iter
    (fun ff ->
      let lo, hi = Design.latency_bounds design ff in
      let l = Design.clock_latency design ff in
      if l < lo -. 1e-6 || l > hi +. 1e-6 then
        err "flip-flop %s latency %.2f outside its [%.2f, %.2f] window"
          (Design.cell_name design ff) l lo hi)
    (Design.ffs design);
  List.iter (fun e -> err "netlist: %s" e) (Design.check design);
  List.rev !errors

let timing timer =
  {
    wns_early = Timer.wns timer Timer.Early;
    tns_early = Timer.tns timer Timer.Early;
    wns_late = Timer.wns timer Timer.Late;
    tns_late = Timer.tns timer Timer.Late;
    num_early_violations = Timer.num_violations timer Timer.Early;
    num_late_violations = Timer.num_violations timer Timer.Late;
    hpwl = Design.total_hpwl (Timer.design timer);
    constraint_errors = [];
  }

(* Zero the scheduled latencies of [ffs]; the result puts them back. *)
let stash design ffs =
  let saved = List.map (Design.scheduled_latency design) ffs in
  List.iter (fun ff -> Design.set_scheduled_latency design ff 0.0) ffs;
  fun () -> List.iter2 (Design.set_scheduled_latency design) ffs saved

let score ?(config = default_config) timer =
  let design = Timer.design timer in
  let report () = { (timing timer) with constraint_errors = check_constraints config design } in
  let held =
    if config.include_scheduled then []
    else
      List.filter
        (fun ff -> Design.scheduled_latency design ff <> 0.0)
        (Array.to_list (Design.ffs design))
  in
  if held = [] then report ()
  else begin
    (* contest semantics on a live timer: take the virtual latencies out
       for the read and put them back after, both incrementally; the
       propagation is exact, so the timer ends bitwise where it began *)
    let restore = stash design held in
    Fun.protect
      ~finally:(fun () ->
        restore ();
        Timer.update_latencies timer held)
      (fun () ->
        Timer.update_latencies timer held;
        report ())
  end

let evaluate ?(config = default_config) design =
  (* contest semantics: only the physical clock network counts, so the
     virtual latencies are stashed for the build *)
  let restore =
    if config.include_scheduled then ignore else stash design (Array.to_list (Design.ffs design))
  in
  Fun.protect ~finally:restore (fun () -> score ~config (Timer.build ~config:config.timer design))

let summary r =
  Printf.sprintf
    "early WNS %.2f TNS %.2f (#%d) | late WNS %.2f TNS %.2f (#%d) | HPWL %.3e%s" r.wns_early
    r.tns_early r.num_early_violations r.wns_late r.tns_late r.num_late_violations r.hpwl
    (match r.constraint_errors with
    | [] -> " | constraints OK"
    | es -> Printf.sprintf " | %d CONSTRAINT VIOLATIONS" (List.length es))
