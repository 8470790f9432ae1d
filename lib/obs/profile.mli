(** Phase profiler: scoped wall-clock timers with self-time attribution.

    Call sites create one {!probe} per phase at module init
    ([engine.dispatch], [ckpt.record], [recovery.respawn], ...) and wrap
    the phase in {!time_probe}; when profiling is enabled the elapsed wall
    time is charged to the named phase, and time spent in nested scopes is
    subtracted to give exclusive "self" time.  State is sharded per domain
    (DLS), so instrumented hot paths never contend on a lock; when
    disabled — the default — {!time_probe} is a single flag test plus the
    cost of the wrapped call.

    The aggregate is exported as a [recflow.profile/1] JSON document
    ({!to_json}) or an ASCII self-time table ({!pp_report}); the CLI
    surfaces both behind [--profile]. *)

val set_enabled : bool -> unit
(** Switch profiling on/off.  Flip it before the measured run, not during:
    the flag is a plain (unsynchronised) toggle read by every domain. *)

val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero all tallies on every domain (keeps profiling enabled/disabled as
    it was).  Call between measured runs, while no run is in flight. *)

type probe
(** A pre-resolved phase handle: it caches the phase's tally per domain,
    so a span costs no name lookup.  Probes created with the same name
    share one phase. *)

val probe : string -> probe
(** Create once (at module init), use from any domain. *)

val time_probe : probe -> (unit -> 'a) -> 'a
(** [time_probe p f] runs [f ()], charging its wall time to [p]'s phase on
    the calling domain: two clock reads and a frame push per span.
    Exceptions propagate; the span still closes.  When profiling is
    disabled this is just [f ()]. *)

type entry = { name : string; count : int; total_s : float; self_s : float }
(** [total_s] is inclusive wall time; [self_s] excludes time spent in
    nested profiled scopes. *)

val snapshot : unit -> entry list
(** Tallies merged across all domains, sorted by phase name.  Take it
    after the measured run has finished — merging does not synchronise
    with in-flight spans. *)

val schema : string
(** ["recflow.profile/1"]. *)

val to_json : ?wall_s:float -> ?meta:(string * Json.t) list -> unit -> Json.t
(** The [recflow.profile/1] document: schema tag, optional wall-clock and
    meta block, and one object per phase with [count] / [total_s] /
    [self_s]. *)

val pp_report : Format.formatter -> unit -> unit
(** ASCII table, phases sorted by self time descending. *)
