(** Export of observability data ({!Bw_obs.Trace} spans and
    {!Bw_obs.Metrics} snapshots) as {!Json} documents.

    Spans become the Chrome trace-event format (the ["traceEvents"]
    array of complete events, ["ph": "X"]) understood by
    [chrome://tracing], Perfetto and speedscope: timestamps and
    durations in microseconds, the recording domain as ["tid"], and
    span attributes under ["args"]. *)

(** [json_of_spans spans] is a complete Chrome trace document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)
val json_of_spans : Bw_obs.Trace.span list -> Json.t

(** Pretty tree of the span forest (indented by depth, durations in
    ms), for terminal consumption by [bwc profile]. *)
val pp_span_tree : Format.formatter -> Bw_obs.Trace.span list -> unit

(** Write a document to [path] followed by a newline. *)
val write_file : string -> Json.t -> unit
