(** Structured lifecycle journal of a simulation run.

    The cluster appends an entry for every significant task-lifecycle and
    recovery event, tagged with its level stamp.  Recording only counts the
    entry, feeds attached sinks and, when retained, conses it onto a list:
    it keeps no index.  Readers that look entries up by stamp build one
    with {!by_stamp}, once per analysis.  Experiments read the journal to
    classify splice cases (§4.1), compute salvage rates and redone work,
    and verify residue-freedom — tests assert directly against it. *)

module Stamp = Recflow_recovery.Stamp
module Ids = Recflow_recovery.Ids

type event =
  | Spawned of { task : Ids.task_id; dest : Ids.proc_id; replica : int }
      (** packet dispatched toward [dest] *)
  | Activated of { task : Ids.task_id; proc : Ids.proc_id }
  | Acked of { task : Ids.task_id; proc : Ids.proc_id }
      (** parent received the positive acknowledgement (state b/d → c/e) *)
  | Completed of { task : Ids.task_id; proc : Ids.proc_id; work : int }
      (** [work] is the busy ticks the task consumed on [proc] *)
  | Inlined of { parent_task : Ids.task_id; proc : Ids.proc_id; work : int }
      (** evaluated inside the parent below the grain boundary *)
  | Aborted of { task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Lost of { task : Ids.task_id; proc : Ids.proc_id; work : int }
      (** the task died with its processor — [work] busy ticks destroyed
          (recorded at kill time, before the [Failure] entry) *)
  | Respawned of { task : Ids.task_id; dest : Ids.proc_id; reason : string }
      (** re-issued from a functional checkpoint ("notice" | "orphan-result") *)
  | Inherited of { orphan_task : Ids.task_id; proc : Ids.proc_id }
      (** a step-parent twin adopted this still-running orphan instead of
          spawning a clone (§4.1 offspring inheritance) *)
  | Result_accepted of { task : Ids.task_id }
      (** value consumed by the (step-)parent's call slot *)
  | Duplicate_ignored of { task : Ids.task_id }
  | Relayed of { via : Ids.proc_id }  (** orphan result forwarded by a grandparent *)
  | Relay_dropped of { at : Ids.proc_id; reason : string }
  | Orphan_dropped of { task : Ids.task_id }  (** rollback: result had nowhere to go *)
  | Failure of { proc : Ids.proc_id }  (** recorded under the root stamp *)

type entry = { time : int; stamp : Stamp.t; event : event }

type t

val create : ?retain:bool -> unit -> t
(** [retain] (default [true]) keeps every entry in memory for {!entries},
    {!by_stamp} and {!count}.  With [retain:false] — the scale-run mode,
    selected through [Config.journal_retain] — attached sinks still see
    every entry and {!length} stays exact, but no entry is kept, so
    journal memory is O(1) in the run length. *)

val attach_sink : t -> entry Recflow_obs_core.Sink.t -> unit
(** Every subsequent entry is also pushed into the sink as it is recorded
    — the hook streaming consumers (Perfetto conversion, sampled JSONL)
    build on so they never need the full retained list.  Repeated calls
    tee; the caller keeps ownership and closes file-backed sinks. *)

val record : t -> time:int -> stamp:Stamp.t -> event -> unit
(** O(1): no hashing, and no allocation beyond the entry (and its list
    cell when retained). *)

val entries : t -> entry list
(** Chronological. *)

val length : t -> int
(** Entries recorded, retained or not. *)

val by_stamp : t -> entry list Stamp.Map.t
(** The retained entries grouped by stamp, each list chronological.  Built
    in one pass on every call: callers build it once per analysis. *)

val count : t -> (event -> bool) -> int

val event_label : event -> string

val pp_entry : Format.formatter -> entry -> unit

val to_json_line : entry -> string
(** One-line JSON object for a JSONL {!Recflow_obs_core.Sink.file}:
    [time], [stamp] and [event] (its {!event_label}) first, then the
    event's own fields by name. *)
