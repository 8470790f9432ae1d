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

type key = int list

let key_of_stamp s : key = Stamp.digits s

type t = {
  retain : bool;
      (* scale runs record millions of entries: with [retain = false] the
         list and per-stamp index stay empty (sinks still see everything)
         so journal memory is O(1) instead of O(run length) *)
  mutable rev_entries : entry list;
  mutable n_entries : int;
  mutable last_time : int option;
  by_stamp : (key, entry list ref) Hashtbl.t;  (* reverse chronological *)
  mutable extra : entry Recflow_obs_core.Sink.t option;
      (* streaming consumers (Perfetto.Stream, JSONL) see every entry as
         it is recorded, without waiting for — or needing — the full
         retained list *)
}

let create ?(retain = true) () =
  {
    retain;
    rev_entries = [];
    n_entries = 0;
    last_time = None;
    by_stamp = Hashtbl.create 256;
    extra = None;
  }

let attach_sink t sink =
  t.extra <-
    (match t.extra with
    | None -> Some sink
    | Some existing -> Some (Recflow_obs_core.Sink.tee existing sink))

let record t ~time ~stamp event =
  let e = { time; stamp; event } in
  t.n_entries <- t.n_entries + 1;
  t.last_time <- Some time;
  (match t.extra with Some s -> Recflow_obs_core.Sink.emit s e | None -> ());
  if t.retain then begin
    t.rev_entries <- e :: t.rev_entries;
    let k = key_of_stamp stamp in
    match Hashtbl.find_opt t.by_stamp k with
    | Some r -> r := e :: !r
    | None -> Hashtbl.add t.by_stamp k (ref [ e ])
  end

let entries t = List.rev t.rev_entries

let length t = t.n_entries

let last_entry_time t = t.last_time

let failures t =
  List.rev
    (List.filter_map
       (fun e -> match e.event with Failure { proc } -> Some (e.time, proc) | _ -> None)
       t.rev_entries)

let for_stamp t stamp =
  match Hashtbl.find_opt t.by_stamp (key_of_stamp stamp) with
  | Some r -> List.rev !r
  | None -> []

let stamps t =
  Hashtbl.fold (fun k _ acc -> Stamp.of_digits k :: acc) t.by_stamp []
  |> List.sort Stamp.compare

let count t pred =
  List.fold_left (fun acc e -> if pred e.event then acc + 1 else acc) 0 t.rev_entries

let first_time t stamp pred =
  List.find_opt (fun e -> pred e.event) (for_stamp t stamp) |> Option.map (fun e -> e.time)

let last_time t stamp pred =
  List.fold_left
    (fun acc e -> if pred e.event then Some e.time else acc)
    None (for_stamp t stamp)

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
