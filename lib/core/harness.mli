(** Multicore experiment driver.

    Generating every table in {!Experiments.all} is embarrassingly
    parallel — each table builds its own programs, machines and caches
    and shares nothing mutable — so the harness fans the table thunks
    out across OCaml 5 domains.  Results come back in the order the
    experiments were given, regardless of which domain finished first,
    so the rendered report is byte-identical to a serial run.

    The harness is crash-tolerant: a table thunk that raises yields an
    [Error] outcome for that table only (sibling tables render
    normally, in both serial and parallel runs), and a worker domain
    that dies outright leaves its claimed-but-unfinished index to be
    retried — up to 2 times — on a surviving domain after the joins.
    Retries and per-table failures are counted in the
    [harness.retries] / [harness.table_errors] metrics. *)

type status =
  | Ok
  | Error of string  (** first line of the exception that killed the table *)

type outcome = {
  id : string;  (** stable experiment id, e.g. ["fig3"] *)
  title : string;  (** the rendered table's title line; [""] on error *)
  body : string;  (** the fully rendered table text; [""] on error *)
  seconds : float;  (** wall-clock seconds to generate this table *)
  status : status;
}

val ok : outcome -> bool
val all_ok : outcome list -> bool

(** [run ?jobs ?scale experiments] renders each [(id, table_fn)] pair,
    fanning out over [jobs] domains (default:
    [Domain.recommended_domain_count ()], capped at the number of
    experiments).  [jobs <= 1] runs everything inline on the calling
    domain.  The result list preserves the input order and always has
    one outcome per experiment — failures are reported in the outcome's
    [status], never raised. *)
val run :
  ?jobs:int ->
  ?scale:int ->
  (string * (?scale:int -> unit -> Table.t)) list ->
  outcome list

(** The default worker count [run] uses when [?jobs] is omitted. *)
val default_jobs : unit -> int

(** Forces this module's fault-injection sites ([harness.table.<id>],
    [harness.worker]) to be registered, for [bwc faults]. *)
val declare_fault_sites : unit -> unit

(** [json_of_results ~scale ~jobs outcomes] builds the
    [BENCH_results.json] document (schema version 6): run parameters,
    and each table's id, title, full rendered body, wall-clock seconds,
    a [status] field (["ok"] or ["error"]) and — for failed tables — an
    [error] message.  [?trace] embeds the harness's collected spans
    under a ["trace"] key as a Chrome trace document (omitted when
    absent or empty), so one artifact carries both the tables and the
    timeline that produced them. *)
val json_of_results :
  ?trace:Bw_obs.Trace.span list ->
  scale:int ->
  jobs:int ->
  outcome list ->
  Json.t
