(* One measured repetition of one recbench workload, in a fresh process.

     bench.exe --workload NAME --seed N [--trace]

   Sets the workload up (timed), runs it once (timed, GC deltas taken
   around the measured call only), checks every answer, and prints one
   flat JSON object of raw per-repetition figures on stdout.  With
   [--trace] the same run also switches on the existing [Profile] probes,
   counts journal entries through a sink, and afterwards replays the
   layers [Cluster] hides (see [Replay]).  run.py repeats this process,
   aggregates the repetitions and prints the benchmark's result line. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Journal = Recflow_machine.Journal
module Oracle = Recflow_machine.Oracle
module Workload = Recflow_workload.Workload
module Service = Recflow_service.Service
module Plan = Recflow_fault.Plan
module Profile = Recflow_obs_core.Profile
module Sink = Recflow_obs_core.Sink
module Json = Recflow_obs_core.Json
module Counter = Recflow_stats.Counter
module Hdr = Recflow_stats.Hdr
module Topology = Recflow_net.Topology
module Value = Recflow_lang.Value

let clock = Unix.gettimeofday

(* Every [Journal.event_label], so a kind that never occurs still reads 0. *)
let journal_kinds =
  [ "spawned"; "activated"; "acked"; "completed"; "inlined"; "aborted"; "lost"; "respawned";
    "inherited"; "result_accepted"; "duplicate_ignored"; "relayed"; "relay_dropped";
    "orphan_dropped"; "failure" ]

(* What one repetition measured, before it is turned into named figures. *)
type measured = {
  cluster : Cluster.t;
  program_s : float;
  cluster_s : float;
  wall_s : float;
  cpu_s : float;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  events : int;
  roots : int;  (** root tasks submitted: 1 in batch, k per request in a stream *)
  makespan : int;  (** tick the last answer landed *)
  sim_time : int;
  sojourns : int * int;  (** p50, p95 *)
  finished : int;
  attempted : int;
  failed : int;
  errors : string list;
  service : (string * int) list;
  captured : Journal.entry list;  (** chronological; only when traced *)
}

let oracle_errors report =
  List.map (fun v -> "oracle: " ^ v) report.Oracle.violations

let run_batch (w : Workloads.t) ~trace =
  let wl = w.workload in
  let t0 = clock () in
  let program = Workload.program wl in
  let t1 = clock () in
  let c = Cluster.create w.config program in
  let t2 = clock () in
  (* The traced run keeps every journal entry through a sink; [traced]
     tallies them by kind and feeds them to the journal and router
     replays. *)
  let captured = ref [] in
  if trace then
    Journal.attach_sink (Cluster.journal c) (Sink.of_fun (fun e -> captured := e :: !captured));
  let t3 = clock () in
  Cluster.start c ~fname:wl.Workload.entry ~args:(wl.Workload.args w.size);
  Plan.apply c (w.plan ~root:(Cluster.root_location c));
  let t4 = clock () in
  Profile.set_enabled trace;
  let gc0 = Gc.quick_stat () in
  let cpu0 = Sys.time () and w0 = clock () in
  let o = Cluster.run ~drain:true c in
  let w1 = clock () and cpu1 = Sys.time () in
  let gc1 = Gc.quick_stat () in
  Profile.set_enabled false;
  let expected = w.expected () in
  let errors =
    (match o.Cluster.answer with
    | Some v when Value.equal v expected -> []
    | Some v ->
      [ Printf.sprintf "answer %s, expected %s" (Value.to_string v) (Value.to_string expected) ]
    | None -> [ "no answer" ])
    @ (match o.Cluster.error with Some e -> [ "program error: " ^ e ] | None -> [])
    @ oracle_errors (Oracle.check c)
  in
  let makespan = Option.value o.Cluster.answer_time ~default:o.Cluster.sim_time in
  let failed = if errors = [] then 0 else 1 in
  {
    cluster = c;
    program_s = t1 -. t0;
    cluster_s = t2 -. t1 +. (t4 -. t3);
    wall_s = w1 -. w0;
    cpu_s = cpu1 -. cpu0;
    gc0;
    gc1;
    events = o.Cluster.events;
    roots = 1;
    makespan;
    sim_time = o.Cluster.sim_time;
    sojourns = (makespan, makespan);
    finished = 1 - failed;
    attempted = 1;
    failed;
    errors;
    service =
      [ ("offered", 1); ("completed", 1 - failed); ("masked", 0); ("recovered", 0); ("shed", 0);
        ("redispatches", Counter.get (Cluster.counters c) "reissue.root") ];
    captured = List.rev !captured;
  }

let run_stream (w : Workloads.t) ~requests ~trace =
  let wl = w.workload in
  let t0 = clock () in
  let program = Workload.program wl in
  let t1 = clock () in
  (* [Service.run] builds its cluster inside the measured call; set-up
     times the same create / fault-plan / open sequence on a twin. *)
  let plan = w.plan ~root:None in
  let twin = Cluster.create w.config program in
  Plan.apply twin plan;
  Cluster.begin_service twin;
  let t2 = clock () in
  let expected = w.expected () in
  Profile.set_enabled trace;
  let gc0 = Gc.quick_stat () in
  let cpu0 = Sys.time () and w0 = clock () in
  let result =
    match
      Service.run ~failures:plan ~config:w.config ~workload:wl ~size:w.size ~requests ()
    with
    | o -> Ok o
    | exception Failure msg -> Error msg
  in
  let w1 = clock () and cpu1 = Sys.time () in
  let gc1 = Gc.quick_stat () in
  Profile.set_enabled false;
  match result with
  | Error msg ->
    Printf.eprintf "service_stream: %s\n" msg;
    exit 1
  | Ok o ->
    let c = o.Service.cluster in
    let counts = o.Service.counts in
    let wrong =
      List.length
        (List.filter
           (fun r ->
             match r.Service.value with Some v -> not (Value.equal v expected) | None -> false)
           o.Service.records)
    in
    let shed = Service.shed counts in
    let errors =
      (if o.Service.all_correct then [] else [ Printf.sprintf "%d wrong answers" wrong ])
      @ (if shed > 0 then [ Printf.sprintf "%d requests shed" shed ] else [])
      @ oracle_errors o.Service.oracle
    in
    let lat = Cluster.latency c "service.latency" in
    let makespan =
      List.fold_left
        (fun acc r -> match r.Service.finish with Some f -> max acc f | None -> acc)
        0 o.Service.records
    in
    let uids = List.init (Cluster.submitted_requests c) Fun.id in
    {
      cluster = c;
      program_s = t1 -. t0;
      cluster_s = t2 -. t1;
      wall_s = w1 -. w0;
      cpu_s = cpu1 -. cpu0;
      gc0;
      gc1;
      events = o.Service.events;
      roots = Cluster.submitted_requests c;
      makespan;
      sim_time = o.Service.sim_time;
      sojourns = (Hdr.quantile lat 50.0, Hdr.quantile lat 95.0);
      finished = Service.finished counts - wrong;
      attempted = requests;
      failed = (if Oracle.ok o.Service.oracle then shed + wrong else requests);
      errors;
      service =
        [ ("offered", counts.Service.offered); ("completed", counts.Service.completed);
          ("masked", counts.Service.masked); ("recovered", counts.Service.recovered);
          ("shed", shed);
          ("redispatches",
           List.fold_left (fun acc u -> acc + Cluster.request_redispatches c u) 0 uids) ];
      captured = (if trace then Journal.entries (Cluster.journal c) else []);
    }

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fi = float_of_int

(* Host timings: these vary run to run; run.py averages them. *)
let timing m =
  [ ("program_s", m.program_s); ("cluster_s", m.cluster_s); ("wall_s", m.wall_s);
    ("cpu_s", m.cpu_s) ]

(* Everything a fixed seed determines exactly.  The [simulated] subset is
   what a traced run must reproduce; the GC figures are exact only between
   runs that are traced alike. *)
let simulated m =
  let ctr = Counter.get (Cluster.counters m.cluster) in
  [
    ("events", m.events);
    ("tasks", m.roots + ctr "spawn.remote");
    ("msgs", ctr "msg.sent");
    ("makespan", m.makespan);
    ("sim_time", m.sim_time);
    ("sojourn_p50", fst m.sojourns);
    ("sojourn_p95", snd m.sojourns);
    ("finished", m.finished);
    ("work", Cluster.total_work m.cluster);
    ("waste", Cluster.total_waste m.cluster);
  ]

let gc m =
  [
    ("minor_words", int_of_float (m.gc1.Gc.minor_words -. m.gc0.Gc.minor_words));
    ("promoted_words", int_of_float (m.gc1.Gc.promoted_words -. m.gc0.Gc.promoted_words));
    ("minor_collections", m.gc1.Gc.minor_collections - m.gc0.Gc.minor_collections);
    ("major_collections", m.gc1.Gc.major_collections - m.gc0.Gc.major_collections);
    ("top_heap_words", m.gc1.Gc.top_heap_words);
  ]

(* Per-layer figures read from counters and accessors — exact, so reported
   by every repetition. *)
let counted m =
  let ctr = Counter.get (Cluster.counters m.cluster) in
  let work = Cluster.total_work m.cluster and waste = Cluster.total_waste m.cluster in
  let reissued = ctr "reissue.count" and stale = ctr "reissue.stale" in
  let msgs = ctr "msg.sent" in
  [
    ("sim.events", fi m.events);
    ("ckpt.recorded", fi (ctr "ckpt.recorded"));
    ("ckpt.covered", fi (ctr "ckpt.covered"));
    ("recovery.reissued", fi reissued);
    ("recovery.reissue_stale", fi stale);
    ("recovery.reissue_useful_frac", ratio (fi reissued) (fi (reissued + stale)));
    ("recovery.relayed", fi (ctr "relay.forwarded"));
    ("recovery.inherited", fi (ctr "spawn.inherited"));
    ("recovery.aborted", fi (ctr "task.aborted"));
    ("recovery.lost", fi (ctr "task.lost_in_failure"));
    ("recovery.redone_work_frac", ratio (fi waste) (fi work));
    ("journal.entries", fi (Journal.length (Cluster.journal m.cluster)));
    ("net.msgs", fi msgs);
    ("net.retransmits", fi (ctr "net.retransmit"));
    ("net.dup_suppressed", fi (ctr "net.dup_suppressed"));
    ("net.msg_dropped", fi (ctr "net.msg_dropped"));
    ("net.acks", fi (ctr "net.ack_sent"));
    ("net.bounced", fi (ctr "msg.bounced"));
    ("net.suspected", fi (ctr "net.suspected"));
    ("net.false_suspicion", fi (ctr "net.false_suspicion"));
    ("net.retransmit_frac", ratio (fi (ctr "net.retransmit")) (fi msgs));
    ("balance.static_reassigned", fi (ctr "static.reassigned"));
    ("service.vote_inconclusive", fi (ctr "vote.inconclusive"));
  ]
  @ List.map (fun (k, v) -> ("service." ^ k, fi v)) m.service

(* Per-layer figures only the traced run has: profile phases, journal
   kinds, and the isolated replays. *)
let traced (w : Workloads.t) m =
  let prof = Profile.snapshot () in
  let phase name = List.find_opt (fun e -> e.Profile.name = name) prof in
  let self name = match phase name with Some e -> e.Profile.self_s | None -> 0.0 in
  let per_call name =
    match phase name with
    | Some e when e.Profile.count > 0 -> e.Profile.total_s *. 1e9 /. fi e.Profile.count
    | _ -> 0.0
  in
  let calls name = match phase name with Some e -> fi e.Profile.count | None -> 0.0 in
  let total_self = List.fold_left (fun acc e -> acc +. e.Profile.self_s) 0.0 prof in
  let recovery_self =
    List.fold_left
      (fun acc e ->
        if String.starts_with ~prefix:"recovery." e.Profile.name then acc +. e.Profile.self_s
        else acc)
      0.0 prof
  in
  let entries = Array.of_list m.captured in
  let kinds = Hashtbl.create 16 in
  Array.iter
    (fun (e : Journal.entry) ->
      let k = Journal.event_label e.event in
      Hashtbl.replace kinds k (1 + Option.value (Hashtbl.find_opt kinds k) ~default:0))
    entries;
  let kind k = Option.value (Hashtbl.find_opt kinds k) ~default:0 in
  let activations = kind "activated" + kind "inlined" in
  let wl = w.workload in
  let cfg = w.config in
  let engine_ns =
    Replay.engine ~events:m.events ~span:m.sim_time ~queue:(Topology.size cfg.Config.topology)
  in
  let eval_ns, replay_answer =
    Replay.lang ~program:(Workload.program wl) ~entry:wl.Workload.entry
      ~args:(wl.Workload.args w.size) ~inline_depth:cfg.Config.inline_depth ~roots:m.roots
  in
  if not (Value.equal replay_answer (w.expected ())) then begin
    prerr_endline "lang replay: answer differs from the reference";
    exit 1
  end;
  let journal_ns = Replay.journal ~retain:cfg.Config.journal_retain entries in
  let distance_ns, routes =
    Replay.distance ~topology:cfg.Config.topology (Replay.route_ops entries)
  in
  let dispatch_self = self "engine.dispatch" in
  let replayed =
    1e-9
    *. ((engine_ns *. fi m.events) +. (eval_ns *. fi activations)
       +. (journal_ns *. fi (Array.length entries))
       +. (distance_ns *. fi routes))
  in
  [
    ("sim.dispatch_self_s", dispatch_self);
    ("sim.engine_ns_per_event", engine_ns);
    ("lang.activations", fi activations);
    ("lang.eval_ns_per_activation", eval_ns);
    ("lang.eval_share", eval_ns *. fi activations *. 1e-9 /. m.wall_s);
    ("ckpt.record_calls", calls "ckpt.record");
    ("ckpt.record_ns", per_call "ckpt.record");
    ("ckpt.discharge_ns", per_call "ckpt.discharge");
    ("ckpt.self_share", ratio (self "ckpt.record" +. self "ckpt.discharge") total_self);
    ("recovery.self_s", recovery_self);
    ("journal.record_ns", journal_ns);
    ("net.distance_ns", distance_ns);
    ("trace.unattributed_share", (dispatch_self -. replayed) /. m.wall_s);
  ]
  @ List.map (fun k -> ("journal.entries." ^ k, fi (kind k))) journal_kinds

let usage () =
  prerr_endline "usage: bench.exe --workload NAME --seed N [--trace]";
  exit 2

let () =
  let workload = ref None and seed = ref None and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some s -> seed := Some s | None -> usage ());
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match (!workload, !seed) with
    | Some name, Some seed -> (
      match Workloads.find name seed with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2)
    | _ -> usage ()
  in
  let trace = !trace in
  let m =
    match w.kind with
    | Workloads.Batch -> run_batch w ~trace
    | Workloads.Stream { requests } -> run_stream w ~requests ~trace
  in
  let num (k, v) = (k, Json.Float v) and int (k, v) = (k, Json.Int v) in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("seed", Json.Int w.config.Config.seed);
        ("traced", Json.Bool trace);
        ("attempted", Json.Int m.attempted);
        ("failed", Json.Int m.failed);
        ("errors", Json.List (List.map (fun e -> Json.Str e) m.errors));
        ("timing", Json.Obj (List.map num (timing m)));
        ("simulated", Json.Obj (List.map int (simulated m)));
        ("gc", Json.Obj (List.map int (gc m)));
        ("layers", Json.Obj (List.map num (counted m @ if trace then traced w m else [])));
      ]
  in
  print_endline (Json.to_string doc)
