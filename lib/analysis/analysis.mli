(** The static query analyzer behind [ucqc check] and [--lint].

    {!check} runs every lint rule over one query text and returns a
    {!report}.  It is total by construction — it never raises: parse and
    interning failures become [UCQ001]/[UCQ002] diagnostics, budget
    exhaustion becomes [UCQ003] (naming the rule that ran out as its
    phase; remaining budgeted rules are skipped), and any other
    exception escaping a rule becomes [UCQ004].

    Rules run in two stages: structural rules over the positioned
    {!Parse.ast} (spans and surface names — [UCQ002], [UCQ101]–[UCQ107]),
    then semantic rules over the interned {!Ucq.t} ([UCQ104]/[UCQ106]
    subsumption, [UCQ201]–[UCQ207], and the [UCQ301] plan report). *)

type report = {
  path : string option;
  diagnostics : Diagnostic.t list;  (** sorted by {!Diagnostic.compare} *)
  plan : Plan.t option;  (** present when the plan rule completed *)
  update_tier : Tier.selection option;
      (** {!Tier} maintenance class under live updates; present when
          interning succeeded and the tier rule completed *)
}

(** The default step allowance when {!check} is called without a budget
    (the semantic rules are exponential by design, so adversarial input
    must terminate regardless). *)
val default_max_steps : int

(** [check ?budget ?tw_threshold ?ie_threshold ?path text] parses and
    analyzes one query.  [tw_threshold] (default 2) is the contract
    treewidth above which [UCQ201] fires; [ie_threshold] (default 8) the
    disjunct count at which [UCQ203] fires.  The Lemma 26 expansion is
    built once, by the plan rule, and [UCQ204] reads its support.  Never
    raises; deterministic for a fixed input and budget. *)
val check :
  ?budget:Budget.t ->
  ?tw_threshold:int ->
  ?ie_threshold:int ->
  ?path:string ->
  string ->
  report

(** [max_severity r] is the highest severity present, if any finding. *)
val max_severity : report -> Diagnostic.severity option

(** [denied_diagnostics specs r] filters the findings [--deny] fails on
    (severity [Error] is always included). *)
val denied_diagnostics : Diagnostic.deny list -> report -> Diagnostic.t list

val diagnostic_to_json : Diagnostic.t -> Trace_json.t

(** [report_to_json r] is the [--format json] payload:
    [{"path", "diagnostics": [...], "plan"?}]. *)
val report_to_json : report -> Trace_json.t

(** [report_to_human r] is the [--format human] rendering, one line per
    finding (or a "clean" line). *)
val report_to_human : report -> string
