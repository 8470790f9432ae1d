(** Structured metrics documents for a finished run.

    One JSON object per run, schema ["recflow.metrics/1"]:

    {v
    { "schema":   "recflow.metrics/1",
      "meta":     { nodes, topology, policy, recovery, ckpt_mode, seed,
                    detect_delay, ..., workload?, size? },
      "outcome":  { answer, answer_time, sim_time, events, error,
                    total_work, total_waste, correct? },
      "counters": { "msg.sent": 1234, ... },
      "latency":  { "net.rtt": { count, invalid, mean, min,
                                 p50, p90, p99, p999, max }, ... },
      "journal_entries": n,
      "episodes": [ per-failure span, see {!Episode.to_json} ],
      "episode_summary": { detection/recovery latency summaries,
                           redone work, §4.1 case histogram } }
    v}

    The [meta] block records every run-defining configuration knob
    ({!Recflow_machine.Config.metadata}) so a benchmark trajectory is
    reproducible from the artefact alone. *)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config

val meta_json :
  ?workload:string -> ?size:string -> Config.t -> Recflow_obs_core.Json.t
(** Just the [meta] object. *)

val hdr_json : Recflow_stats.Hdr.t -> Recflow_obs_core.Json.t
(** Percentile block for one duration histogram: count/invalid always,
    mean/min/p50/p90/p99/p999/max when non-empty.  Shared by the metrics
    document and the bench harness. *)

val run_json :
  ?workload:string ->
  ?size:string ->
  ?expected:Recflow_lang.Value.t ->
  cluster:Cluster.t ->
  outcome:Cluster.outcome ->
  unit ->
  Recflow_obs_core.Json.t
(** The full document.  [expected] adds an ["correct"] verdict against the
    serial reference answer. *)

val write : path:string -> Recflow_obs_core.Json.t -> unit
