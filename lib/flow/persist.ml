module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Graph = Css_sta.Graph
module Extract = Css_seqgraph.Extract
module Diag = Css_util.Diag

let log_src = Logs.Src.create "css.persist" ~doc:"durable flow checkpoints"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Interrupt flag and signal handlers                                  *)

(* One process-global flag: signal handlers may run on any thread at any
   time, so the only thing they do is flip it; the flow polls it at
   iteration and phase boundaries (cooperative interruption keeps every
   stop on a state the checkpoint format can represent). *)
let interrupt_flag = Atomic.make false
let interrupted () = Atomic.get interrupt_flag
let request_interrupt () = Atomic.set interrupt_flag true
let clear_interrupt () = Atomic.set interrupt_flag false

type handlers = (int * Sys.signal_behavior) list

let install_handlers ?(signals = [ Sys.sigint; Sys.sigterm ]) ?on_signal () =
  let handle n =
    request_interrupt ();
    match on_signal with None -> () | Some f -> f n
  in
  List.filter_map
    (fun s ->
      match Sys.signal s (Sys.Signal_handle handle) with
      | prev -> Some (s, prev)
      | exception (Invalid_argument _ | Sys_error _) -> None)
    signals

let uninstall_handlers saved =
  List.iter
    (fun (s, prev) ->
      try Sys.set_signal s prev with Invalid_argument _ | Sys_error _ -> ())
    saved

let with_signal_handlers f =
  let saved = install_handlers () in
  Fun.protect ~finally:(fun () -> uninstall_handlers saved) f

(* ------------------------------------------------------------------ *)
(* The checkpoint state record                                         *)

type trace_entry = {
  te_round : int;
  te_phase : string;
  te_iter : int;
  te_wns_early : float;
  te_tns_early : float;
  te_wns_late : float;
  te_tns_late : float;
}

(* The flow's best in-memory checkpoint, persisted field-for-field: the
   restore arrays are indexed by the dense cell ids the design text
   round-trip preserves, and the evaluator report is stored rather than
   re-derived so the resumed run's final rollback compares the exact
   same floats an uninterrupted run would. *)
type best = {
  pb_label : string;
  pb_ffs : int array;
  pb_latencies : float array;
  pb_lcb_of : int array;
  pb_x : float array;  (* position per cell id *)
  pb_y : float array;
  pb_masters : string array;
  pb_report : Css_eval.Evaluator.report;
}

type state = {
  ps_algo : string;
  ps_design : string;
  ps_rounds : int;
  ps_phases_done : int;
  ps_hold_done : bool;
  ps_iterations : int;
  ps_edges : int;
  ps_cones : int;
  ps_stall_best : float;
  ps_stall_count : int;
  ps_stop : string option;
  ps_hpwl_before : float;
  ps_anchor_x : float array;  (* max-displacement anchor per cell id *)
  ps_anchor_y : float array;
  ps_css_seconds : float;
  ps_opt_seconds : float;
  ps_rung : int;
  ps_degradations : string list;
  ps_trace : trace_entry list;
  ps_best : best option;
  ps_design_text : string;
  ps_engines : (string * Extract.snapshot) list;
}

let path ~dir = Filename.concat dir "checkpoint.ckpt"

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let magic = "css-checkpoint"

(* Version 2 carried a cone-cache section between the engines and the
   end marker; version 3 dropped it. Both older versions still load: a
   version-2 cache section is shape-checked (it sits under the body
   hash) and its entries discarded. *)
let version = 3
let min_version = 1
let fstr = Io.float_to_string

(* FNV-1a 64: tiny, dependency-free, and plenty to reject the failure
   modes that matter here (truncation survived by the structure check,
   bit rot, concurrent partial overwrite) — this is an integrity check,
   not an authenticity one. *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime) s;
  !h

let enc_launcher = function
  | Graph.Launch_ff c -> Printf.sprintf "f%d" c
  | Graph.Launch_port p -> Printf.sprintf "p%d" p

let enc_endpoint = function
  | Graph.End_ff c -> Printf.sprintf "f%d" c
  | Graph.End_port p -> Printf.sprintf "p%d" p

let body_of_state st =
  let b = Buffer.create (String.length st.ps_design_text + 4096) in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "algo %s" st.ps_algo;
  line "design %s" st.ps_design;
  line "rounds %d" st.ps_rounds;
  line "phases-done %d" st.ps_phases_done;
  line "hold-done %d" (if st.ps_hold_done then 1 else 0);
  line "iterations %d" st.ps_iterations;
  line "edges %d" st.ps_edges;
  line "cones %d" st.ps_cones;
  line "stall-best %s" (fstr st.ps_stall_best);
  line "stall-count %d" st.ps_stall_count;
  line "stop %s" (match st.ps_stop with None -> "-" | Some s -> s);
  line "hpwl-before %s" (fstr st.ps_hpwl_before);
  (* movement anchors: a reparsed design re-anchors at its parsed
     positions, so the original run's legality reference is carried
     explicitly *)
  line "anchors %d" (Array.length st.ps_anchor_x);
  line "ax %s" (String.concat " " (Array.to_list (Array.map fstr st.ps_anchor_x)));
  line "ay %s" (String.concat " " (Array.to_list (Array.map fstr st.ps_anchor_y)));
  line "css-seconds %s" (fstr st.ps_css_seconds);
  line "opt-seconds %s" (fstr st.ps_opt_seconds);
  line "rung %d" st.ps_rung;
  line "degraded %d" (List.length st.ps_degradations);
  List.iter (fun d -> line "d %s" d) st.ps_degradations;
  line "trace %d" (List.length st.ps_trace);
  List.iter
    (fun t ->
      line "t %d %s %d %s %s %s %s" t.te_round t.te_phase t.te_iter (fstr t.te_wns_early)
        (fstr t.te_tns_early) (fstr t.te_wns_late) (fstr t.te_tns_late))
    st.ps_trace;
  (match st.ps_best with
  | None -> line "best -"
  | Some bc ->
    let floats a = String.concat " " (Array.to_list (Array.map fstr a)) in
    let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
    let r = bc.pb_report in
    line "best %s" bc.pb_label;
    line "bn %d %d %d" (Array.length bc.pb_ffs) (Array.length bc.pb_x)
      (List.length r.Css_eval.Evaluator.constraint_errors);
    line "bf %s" (ints bc.pb_ffs);
    line "bl %s" (floats bc.pb_latencies);
    line "bb %s" (ints bc.pb_lcb_of);
    line "bx %s" (floats bc.pb_x);
    line "by %s" (floats bc.pb_y);
    line "bm %s" (String.concat " " (Array.to_list bc.pb_masters));
    line "br %s %s %s %s %d %d %s"
      (fstr r.Css_eval.Evaluator.wns_early)
      (fstr r.Css_eval.Evaluator.tns_early)
      (fstr r.Css_eval.Evaluator.wns_late)
      (fstr r.Css_eval.Evaluator.tns_late)
      r.Css_eval.Evaluator.num_early_violations r.Css_eval.Evaluator.num_late_violations
      (fstr r.Css_eval.Evaluator.hpwl);
    List.iter (fun e -> line "be %s" e) r.Css_eval.Evaluator.constraint_errors);
  line "design-text %d" (String.length st.ps_design_text);
  Buffer.add_string b st.ps_design_text;
  Buffer.add_char b '\n';
  line "engines %d" (List.length st.ps_engines);
  List.iter
    (fun (slot, (sn : Extract.snapshot)) ->
      line "engine %s %s %d %d %d %d %d %d %d" slot
        (Extract.engine_name sn.Extract.sn_engine)
        sn.Extract.sn_edges_extracted sn.Extract.sn_cone_nodes sn.Extract.sn_rounds
        sn.Extract.sn_pending_first
        (List.length sn.Extract.sn_edges)
        (Array.length sn.Extract.sn_bound)
        (Array.length sn.Extract.sn_expanded);
      List.iter
        (fun (e : Extract.edge_snap) ->
          line "e %s %s %s %s" (enc_launcher e.Extract.es_launcher)
            (enc_endpoint e.Extract.es_endpoint) (fstr e.Extract.es_delay)
            (fstr e.Extract.es_weight))
        sn.Extract.sn_edges;
      if Array.length sn.Extract.sn_bound > 0 then
        line "bound %s"
          (String.concat " " (Array.to_list (Array.map fstr sn.Extract.sn_bound)));
      if Array.length sn.Extract.sn_expanded > 0 then
        line "expanded %s"
          (String.init (Array.length sn.Extract.sn_expanded) (fun i ->
               if sn.Extract.sn_expanded.(i) then '1' else '0')))
    st.ps_engines;
  line "end";
  Buffer.contents b

let save ~dir st =
  let body = body_of_state st in
  let final = path ~dir in
  let tmp = final ^ ".tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin tmp in
  (try
     Printf.fprintf oc "%s %d\nhash %016Lx\n" magic version (fnv1a64 body);
     output_string oc body;
     flush oc;
     (* flush the data to the device before the rename publishes it: a
        crash must leave either the old checkpoint or the complete new
        one, never a named-but-empty file *)
     (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp final;
  Log.debug (fun m -> m "checkpoint saved: %s (%d phases done)" final st.ps_phases_done)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Bad of Diag.t

let bad ?file code msg = raise (Bad (Diag.error ?file ~code msg))

(* A byte cursor over the whole file: line-oriented fields plus
   byte-counted blobs from one buffer, so truncation anywhere is
   detected structurally (CKPT-004) instead of surfacing as a confusing
   field error. *)
type cursor = { buf : string; file : string; mutable pos : int }

let next_line cur =
  if cur.pos >= String.length cur.buf then
    bad ~file:cur.file "CKPT-004" "unexpected end of file (truncated checkpoint)";
  match String.index_from_opt cur.buf cur.pos '\n' with
  | None ->
    (* a final unterminated line is itself evidence of a torn write *)
    bad ~file:cur.file "CKPT-004" "unexpected end of file (truncated checkpoint)"
  | Some nl ->
    let s = String.sub cur.buf cur.pos (nl - cur.pos) in
    cur.pos <- nl + 1;
    s

let take_blob cur n =
  if n < 0 || cur.pos + n + 1 > String.length cur.buf then
    bad ~file:cur.file "CKPT-004"
      (Printf.sprintf "blob of %d bytes extends past end of file (truncated checkpoint)" n);
  let s = String.sub cur.buf cur.pos n in
  (if cur.buf.[cur.pos + n] <> '\n' then
     bad ~file:cur.file "CKPT-005" "blob is not newline-terminated");
  cur.pos <- cur.pos + n + 1;
  s

let field cur key =
  let l = next_line cur in
  let pfx = key ^ " " in
  if String.length l >= String.length pfx && String.sub l 0 (String.length pfx) = pfx then
    String.sub l (String.length pfx) (String.length l - String.length pfx)
  else bad ~file:cur.file "CKPT-005" (Printf.sprintf "expected '%s ...', got '%s'" key l)

let int_of cur key s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "field %s: not an integer: '%s'" key s)

let float_of cur key s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "field %s: not a float: '%s'" key s)

let int_field cur key = int_of cur key (field cur key)
let float_field cur key = float_of cur key (field cur key)

let split_ws s = String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let dec_launcher cur s =
  let n = String.length s in
  if n < 2 then bad ~file:cur.file "CKPT-005" (Printf.sprintf "bad launcher '%s'" s)
  else
    let id = int_of cur "launcher" (String.sub s 1 (n - 1)) in
    match s.[0] with
    | 'f' -> Graph.Launch_ff id
    | 'p' -> Graph.Launch_port id
    | _ -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "bad launcher '%s'" s)

let dec_endpoint cur s =
  let n = String.length s in
  if n < 2 then bad ~file:cur.file "CKPT-005" (Printf.sprintf "bad endpoint '%s'" s)
  else
    let id = int_of cur "endpoint" (String.sub s 1 (n - 1)) in
    match s.[0] with
    | 'f' -> Graph.End_ff id
    | 'p' -> Graph.End_port id
    | _ -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "bad endpoint '%s'" s)

let engine_of_name cur = function
  | "full" -> Extract.Full
  | "essential" -> Extract.Essential
  | "iccss" -> Extract.Iccss
  | s -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "unknown engine '%s'" s)

let parse_body ~version:v cur =
  let ps_algo = field cur "algo" in
  let ps_design = field cur "design" in
  let ps_rounds = int_field cur "rounds" in
  let ps_phases_done = int_field cur "phases-done" in
  let ps_hold_done = int_field cur "hold-done" <> 0 in
  let ps_iterations = int_field cur "iterations" in
  let ps_edges = int_field cur "edges" in
  let ps_cones = int_field cur "cones" in
  let ps_stall_best = float_field cur "stall-best" in
  let ps_stall_count = int_field cur "stall-count" in
  let ps_stop = match field cur "stop" with "-" -> None | s -> Some s in
  let ps_hpwl_before = float_field cur "hpwl-before" in
  let nanchors = int_field cur "anchors" in
  let anchor_array key =
    let toks = Array.of_list (split_ws (field cur key)) in
    if Array.length toks <> nanchors then
      bad ~file:cur.file "CKPT-005"
        (Printf.sprintf "%s: expected %d anchors, got %d" key nanchors (Array.length toks))
    else Array.map (float_of cur key) toks
  in
  let ps_anchor_x = anchor_array "ax" in
  let ps_anchor_y = anchor_array "ay" in
  let ps_css_seconds = float_field cur "css-seconds" in
  let ps_opt_seconds = float_field cur "opt-seconds" in
  let ps_rung = int_field cur "rung" in
  let ndeg = int_field cur "degraded" in
  let ps_degradations = List.init ndeg (fun _ -> field cur "d") in
  let ntrace = int_field cur "trace" in
  let ps_trace =
    List.init ntrace (fun _ ->
        match split_ws (field cur "t") with
        | [ r; phase; i; we; te; wl; tl ] ->
          {
            te_round = int_of cur "t.round" r;
            te_phase = phase;
            te_iter = int_of cur "t.iter" i;
            te_wns_early = float_of cur "t.wns_early" we;
            te_tns_early = float_of cur "t.tns_early" te;
            te_wns_late = float_of cur "t.wns_late" wl;
            te_tns_late = float_of cur "t.tns_late" tl;
          }
        | _ -> bad ~file:cur.file "CKPT-005" "malformed trace entry")
  in
  let ps_best =
    match field cur "best" with
    | "-" -> None
    | label ->
      let counts = split_ws (field cur "bn") in
      let nffs, ncells, nerrs =
        match counts with
        | [ a; b'; c ] -> (int_of cur "bn.ffs" a, int_of cur "bn.cells" b', int_of cur "bn.errs" c)
        | _ -> bad ~file:cur.file "CKPT-005" "malformed bn line"
      in
      let int_array key n =
        let toks = Array.of_list (split_ws (field cur key)) in
        if Array.length toks <> n then
          bad ~file:cur.file "CKPT-005"
            (Printf.sprintf "%s: expected %d entries, got %d" key n (Array.length toks))
        else Array.map (int_of cur key) toks
      in
      let float_array key n =
        let toks = Array.of_list (split_ws (field cur key)) in
        if Array.length toks <> n then
          bad ~file:cur.file "CKPT-005"
            (Printf.sprintf "%s: expected %d entries, got %d" key n (Array.length toks))
        else Array.map (float_of cur key) toks
      in
      let pb_ffs = int_array "bf" nffs in
      let pb_latencies = float_array "bl" nffs in
      let pb_lcb_of = int_array "bb" nffs in
      let pb_x = float_array "bx" ncells in
      let pb_y = float_array "by" ncells in
      let pb_masters =
        let toks = Array.of_list (split_ws (field cur "bm")) in
        if Array.length toks <> ncells then
          bad ~file:cur.file "CKPT-005"
            (Printf.sprintf "bm: expected %d masters, got %d" ncells (Array.length toks))
        else toks
      in
      let pb_report =
        match split_ws (field cur "br") with
        | [ we; te; wl; tl; nev; nlv; hpwl ] ->
          {
            Css_eval.Evaluator.wns_early = float_of cur "br.wns_early" we;
            tns_early = float_of cur "br.tns_early" te;
            wns_late = float_of cur "br.wns_late" wl;
            tns_late = float_of cur "br.tns_late" tl;
            num_early_violations = int_of cur "br.nev" nev;
            num_late_violations = int_of cur "br.nlv" nlv;
            hpwl = float_of cur "br.hpwl" hpwl;
            constraint_errors = [];
          }
        | _ -> bad ~file:cur.file "CKPT-005" "malformed br line"
      in
      let errs = List.init nerrs (fun _ -> field cur "be") in
      Some
        {
          pb_label = label;
          pb_ffs;
          pb_latencies;
          pb_lcb_of;
          pb_x;
          pb_y;
          pb_masters;
          pb_report = { pb_report with Css_eval.Evaluator.constraint_errors = errs };
        }
  in
  let n = int_field cur "design-text" in
  let ps_design_text = take_blob cur n in
  let nengines = int_field cur "engines" in
  let ps_engines =
    List.init nengines (fun _ ->
        match split_ws (field cur "engine") with
        | [ slot; name; extracted; cones; rounds; pending; nedges; nbound; nexpanded ] ->
          let nedges = int_of cur "engine.nedges" nedges in
          let nbound = int_of cur "engine.nbound" nbound in
          let nexpanded = int_of cur "engine.nexpanded" nexpanded in
          let edges =
            List.init nedges (fun _ ->
                match split_ws (field cur "e") with
                | [ l; e; delay; weight ] ->
                  {
                    Extract.es_launcher = dec_launcher cur l;
                    es_endpoint = dec_endpoint cur e;
                    es_delay = float_of cur "e.delay" delay;
                    es_weight = float_of cur "e.weight" weight;
                  }
                | _ -> bad ~file:cur.file "CKPT-005" "malformed edge entry")
          in
          let bound =
            if nbound = 0 then [||]
            else
              let toks = Array.of_list (split_ws (field cur "bound")) in
              if Array.length toks <> nbound then
                bad ~file:cur.file "CKPT-005"
                  (Printf.sprintf "bound: expected %d floats, got %d" nbound
                     (Array.length toks))
              else Array.map (float_of cur "bound") toks
          in
          let expanded =
            if nexpanded = 0 then [||]
            else
              let s = field cur "expanded" in
              if String.length s <> nexpanded then
                bad ~file:cur.file "CKPT-005"
                  (Printf.sprintf "expanded: expected %d flags, got %d" nexpanded
                     (String.length s))
              else Array.init nexpanded (fun i -> s.[i] = '1')
          in
          ( slot,
            {
              Extract.sn_engine = engine_of_name cur name;
              sn_edges = edges;
              sn_edges_extracted = int_of cur "engine.extracted" extracted;
              sn_cone_nodes = int_of cur "engine.cones" cones;
              sn_rounds = int_of cur "engine.rounds" rounds;
              sn_pending_first = int_of cur "engine.pending" pending;
              sn_bound = bound;
              sn_expanded = expanded;
            } )
        | _ -> bad ~file:cur.file "CKPT-005" "malformed engine header")
  in
  (* version 2 only: [cache N], then four lines per entry *)
  if v = 2 then
    for _ = 1 to int_field cur "cache" do
      List.iter (fun key -> ignore (field cur key)) [ "c"; "m"; "n"; "dl" ]
    done;
  (match next_line cur with
  | "end" -> ()
  | l -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "expected end marker, got '%s'" l));
  {
    ps_algo;
    ps_design;
    ps_rounds;
    ps_phases_done;
    ps_hold_done;
    ps_iterations;
    ps_edges;
    ps_cones;
    ps_stall_best;
    ps_stall_count;
    ps_stop;
    ps_hpwl_before;
    ps_anchor_x;
    ps_anchor_y;
    ps_css_seconds;
    ps_opt_seconds;
    ps_rung;
    ps_degradations;
    ps_trace;
    ps_best;
    ps_design_text;
    ps_engines;
  }

let read_file file =
  match open_in_bin file with
  | exception Sys_error msg -> bad ~file "CKPT-001" ("cannot read checkpoint: " ^ msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let load ~dir =
  let file = path ~dir in
  try
    let raw = read_file file in
    let cur = { buf = raw; file; pos = 0 } in
    let v =
      match split_ws (next_line cur) with
      | [ m; v ] when m = magic ->
        let v = int_of cur "version" v in
        if v < min_version || v > version then
          bad ~file "CKPT-002"
            (Printf.sprintf "unsupported checkpoint version %d (this build reads %d..%d)" v
               min_version version)
        else v
      | _ -> bad ~file "CKPT-002" "not a css-checkpoint file (bad magic)"
    in
    let stored_hash =
      match Int64.of_string_opt ("0x" ^ field cur "hash") with
      | Some h -> h
      | None -> bad ~file "CKPT-005" "malformed hash line"
    in
    let body = String.sub cur.buf cur.pos (String.length cur.buf - cur.pos) in
    (* structure first: a torn tail reports as truncation (CKPT-004),
       not as the hash mismatch it would also cause *)
    let st = parse_body ~version:v cur in
    if cur.pos <> String.length cur.buf then
      bad ~file "CKPT-005" "trailing bytes after end marker";
    let actual = fnv1a64 body in
    if actual <> stored_hash then
      bad ~file "CKPT-003"
        (Printf.sprintf "content hash mismatch (stored %016Lx, computed %016Lx)" stored_hash
           actual);
    Ok st
  with Bad d -> Error [ d ]
