module Stamp = Recflow_recovery.Stamp
module Ids = Recflow_recovery.Ids
module Json = Recflow_obs_core.Json

type event =
  | Spawned of { task : Ids.task_id; dest : Ids.proc_id; replica : int }
  | Activated of { task : Ids.task_id; proc : Ids.proc_id }
  | Acked of { task : Ids.task_id; proc : Ids.proc_id }
  | Completed of { task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Inlined of { parent_task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Aborted of { task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Lost of { task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Respawned of { task : Ids.task_id; dest : Ids.proc_id; reason : string }
  | Inherited of { orphan_task : Ids.task_id; proc : Ids.proc_id }
  | Result_accepted of { task : Ids.task_id }
  | Duplicate_ignored of { task : Ids.task_id }
  | Relayed of { via : Ids.proc_id }
  | Relay_dropped of { at : Ids.proc_id; reason : string }
  | Orphan_dropped of { task : Ids.task_id }
  | Failure of { proc : Ids.proc_id }

type entry = { time : int; stamp : Stamp.t; event : event }

type t = {
  retain : bool;
      (* scale runs record millions of entries: with [retain = false] the
         list stays empty (sinks still see everything) so journal memory
         is O(1) instead of O(run length) *)
  mutable rev_entries : entry list;
  mutable n_entries : int;
  mutable extra : entry Recflow_obs_core.Sink.t option;
      (* streaming consumers (Perfetto.Stream, JSONL) see every entry as
         it is recorded, without waiting for — or needing — the full
         retained list *)
}

let create ?(retain = true) () = { retain; rev_entries = []; n_entries = 0; extra = None }

let attach_sink t sink =
  t.extra <-
    (match t.extra with
    | None -> Some sink
    | Some existing -> Some (Recflow_obs_core.Sink.tee existing sink))

(* The hot path: no hashing, and no entry at all unless a sink or the
   retained list wants one. *)
let record t ~time ~stamp event =
  t.n_entries <- t.n_entries + 1;
  match t.extra with
  | Some s ->
    let e = { time; stamp; event } in
    Recflow_obs_core.Sink.emit s e;
    if t.retain then t.rev_entries <- e :: t.rev_entries
  | None -> if t.retain then t.rev_entries <- { time; stamp; event } :: t.rev_entries

let entries t = List.rev t.rev_entries

let length t = t.n_entries

(* Folding the reverse-chronological list and consing leaves every
   per-stamp list chronological. *)
let by_stamp t =
  List.fold_left
    (fun m e ->
      Stamp.Map.update e.stamp (function None -> Some [ e ] | Some l -> Some (e :: l)) m)
    Stamp.Map.empty t.rev_entries

let count t pred =
  List.fold_left (fun acc e -> if pred e.event then acc + 1 else acc) 0 t.rev_entries

let event_label = function
  | Spawned _ -> "spawned"
  | Activated _ -> "activated"
  | Acked _ -> "acked"
  | Completed _ -> "completed"
  | Inlined _ -> "inlined"
  | Aborted _ -> "aborted"
  | Lost _ -> "lost"
  | Respawned _ -> "respawned"
  | Inherited _ -> "inherited"
  | Result_accepted _ -> "result_accepted"
  | Duplicate_ignored _ -> "duplicate_ignored"
  | Relayed _ -> "relayed"
  | Relay_dropped _ -> "relay_dropped"
  | Orphan_dropped _ -> "orphan_dropped"
  | Failure _ -> "failure"

let pp_entry ppf e =
  let detail =
    match e.event with
    | Spawned { task; dest; replica } ->
      Printf.sprintf "task%d -> %s%s" task (Ids.proc_to_string dest)
        (if replica > 0 then Printf.sprintf " (replica %d)" replica else "")
    | Activated { task; proc } | Acked { task; proc } ->
      Printf.sprintf "task%d on %s" task (Ids.proc_to_string proc)
    | Completed { task; proc; work } | Aborted { task; proc; work } | Lost { task; proc; work }
      ->
      Printf.sprintf "task%d on %s (work %d)" task (Ids.proc_to_string proc) work
    | Inlined { parent_task; proc; work } ->
      Printf.sprintf "inside task%d on %s (work %d)" parent_task (Ids.proc_to_string proc) work
    | Respawned { task; dest; reason } ->
      Printf.sprintf "task%d -> %s (%s)" task (Ids.proc_to_string dest) reason
    | Inherited { orphan_task; proc } ->
      Printf.sprintf "orphan task%d on %s adopted" orphan_task (Ids.proc_to_string proc)
    | Result_accepted { task } | Duplicate_ignored { task } | Orphan_dropped { task } ->
      Printf.sprintf "task%d" task
    | Relayed { via } -> Printf.sprintf "via %s" (Ids.proc_to_string via)
    | Relay_dropped { at; reason } ->
      Printf.sprintf "at %s (%s)" (Ids.proc_to_string at) reason
    | Failure { proc } -> Ids.proc_to_string proc
  in
  Format.fprintf ppf "[%8d] %-10s %-16s %s" e.time (Stamp.to_string e.stamp)
    (event_label e.event) detail

let to_json_line e =
  let int k v = (k, Json.Int v) in
  let fields =
    match e.event with
    | Spawned { task; dest; replica } -> [ int "task" task; int "dest" dest; int "replica" replica ]
    | Activated { task; proc } | Acked { task; proc } -> [ int "task" task; int "proc" proc ]
    | Completed { task; proc; work } | Aborted { task; proc; work } | Lost { task; proc; work }
      ->
      [ int "task" task; int "proc" proc; int "work" work ]
    | Inlined { parent_task; proc; work } ->
      [ int "parent_task" parent_task; int "proc" proc; int "work" work ]
    | Respawned { task; dest; reason } ->
      [ int "task" task; int "dest" dest; ("reason", Json.Str reason) ]
    | Inherited { orphan_task; proc } -> [ int "orphan_task" orphan_task; int "proc" proc ]
    | Result_accepted { task } | Duplicate_ignored { task } | Orphan_dropped { task } ->
      [ int "task" task ]
    | Relayed { via } -> [ int "via" via ]
    | Relay_dropped { at; reason } -> [ int "at" at; ("reason", Json.Str reason) ]
    | Failure { proc } -> [ int "proc" proc ]
  in
  Json.to_string
    (Json.Obj
       (int "time" e.time
       :: ("stamp", Json.Str (Stamp.to_string e.stamp))
       :: ("event", Json.Str (event_label e.event))
       :: fields))
