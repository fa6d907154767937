(** Plain-text exposition of {!Bw_obs.Metrics} for the [/metrics]
    endpoint and serve's [metrics] op: Prometheus line format — names
    with ['.'] mapped to ['_'], ["name value"] per counter/gauge,
    histograms flattened to [_count]/[_sum] and cumulative
    [_bucket{le="..."}] lines.  Five gauges read from [Gc.quick_stat]
    at render time follow: [gc_minor_words], [gc_major_words],
    [gc_minor_collections], [gc_major_collections] (totals since the
    process started) and [gc_heap_words] (the major heap now). *)

val render : unit -> string

(** Map a metric name to its exposition spelling ([.] → [_]). *)
val sanitize : string -> string
