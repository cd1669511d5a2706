(** The design evaluator — the stand-in for the official ICCAD-2015
    contest evaluator the paper scores against.

    It measures early/late WNS and TNS over all endpoints, total HPWL,
    and checks the contest constraints: LCB fanout limit and per-cell
    displacement budget. Scheduled (virtual) latencies are ignored by
    default — only the physically realized clock network counts, exactly
    like the contest evaluator.

    Two entry points assemble the same report. {!evaluate} is the
    independent one: it rebuilds a fresh timer, never trusting any
    incremental state the optimizer maintained, and is the reference the
    oracles compare against. {!score} reads the report off a live,
    up-to-date timer — what a session uses to score its rollback
    checkpoints without a rebuild per phase. *)

type report = {
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  num_early_violations : int;
  num_late_violations : int;
  hpwl : float;
  constraint_errors : string list;  (** empty when all constraints hold *)
}

type config = {
  lcb_fanout_limit : int;  (** contest: 50 *)
  max_displacement : float;  (** per-cell displacement budget, DBU *)
  include_scheduled : bool;
      (** count virtual latencies as real — useful for inspecting a CSS
          result before realization, never for final scoring *)
  timer : Css_sta.Timer.config;
      (** analysis setup (derates, uncertainties) the scoring timer uses *)
}

val default_config : config

(** [evaluate ?config design] scores the design on a freshly built
    timer. With [include_scheduled = false] the scheduled latencies are
    zeroed for the build and restored afterwards, also when the build
    raises (e.g. on a combinational cycle), so [design] is left as it
    was given. *)
val evaluate : ?config:config -> Css_netlist.Design.t -> report

(** [score ?config timer] reads the report off [timer], which must be up
    to date with its design and built with [config.timer]; it is then
    bitwise [evaluate ?config (Timer.design timer)]. With
    [include_scheduled = false], flip-flops that hold a scheduled latency
    have it taken out of the timer for the read and put back after, by
    incremental re-propagation of their cones, so [timer] and its design
    end as they began. *)
val score : ?config:config -> Css_sta.Timer.t -> report

(** [timing timer] reads WNS, TNS, violation counts and HPWL off [timer]
    as it stands — virtual latencies counted when the timer sees them —
    with no constraint audit ([constraint_errors = []]). The cheap live
    view a service answers delta requests with; never final scoring. *)
val timing : Css_sta.Timer.t -> report

(** [summary r] is a one-line human-readable rendering. *)
val summary : report -> string
