module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Journal = Recflow_machine.Journal
module Counter = Recflow_stats.Counter
module Hdr = Recflow_stats.Hdr
module Value = Recflow_lang.Value
module Json = Recflow_obs_core.Json

let schema = "recflow.metrics/1"

let meta_value_json : Config.meta_value -> Json.t = function
  | `Int n -> Json.Int n
  | `Str s -> Json.Str s
  | `Bool b -> Json.Bool b

let meta_json ?workload ?size config =
  let fields = List.map (fun (k, v) -> (k, meta_value_json v)) (Config.metadata config) in
  let opt name = function Some v -> [ (name, Json.Str v) ] | None -> [] in
  Json.Obj (fields @ opt "workload" workload @ opt "size" size)

let opt_int = function Some n -> Json.Int n | None -> Json.Null

let outcome_json ?expected (outcome : Cluster.outcome) ~total_work ~total_waste =
  let answer = match outcome.Cluster.answer with Some v -> Json.Str (Value.to_string v) | None -> Json.Null in
  let correct =
    match (expected, outcome.Cluster.answer) with
    | Some e, Some v -> [ ("correct", Json.Bool (Value.equal e v)) ]
    | Some _, None -> [ ("correct", Json.Bool false) ]
    | None, _ -> []
  in
  Json.Obj
    ([
       ("answer", answer);
       ("answer_time", opt_int outcome.Cluster.answer_time);
       ("sim_time", Json.Int outcome.Cluster.sim_time);
       ("events", Json.Int outcome.Cluster.events);
       ( "error",
         match outcome.Cluster.error with Some e -> Json.Str e | None -> Json.Null );
       ("total_work", Json.Int total_work);
       ("total_waste", Json.Int total_waste);
     ]
    @ correct)

(* Percentile block for one duration histogram; quantiles are omitted for
   an empty histogram rather than faked as zeros. *)
let hdr_json h =
  let base = [ ("count", Json.Int (Hdr.count h)); ("invalid", Json.Int (Hdr.invalid h)) ] in
  if Hdr.count h = 0 then Json.Obj base
  else
    let q p = Json.Int (Hdr.quantile h p) in
    Json.Obj
      (base
      @ [
          ("mean", Json.Float (Hdr.mean h));
          ("min", Json.Int (Hdr.min_value h));
          ("p50", q 50.0);
          ("p90", q 90.0);
          ("p99", q 99.0);
          ("p999", q 99.9);
          ("max", Json.Int (Hdr.max_value h));
        ])

(* Recovery-episode durations come out of the journal analyzer rather than
   a runtime recording point, but they belong in the same percentile block
   as the transport and sojourn histograms. *)
let episode_duration_hdr episodes =
  let h = Hdr.create () in
  List.iter
    (fun (e : Episode.t) ->
      match e.Episode.recovery_latency with Some d -> Hdr.record h d | None -> ())
    episodes;
  h

let latency_json ~cluster ~episodes =
  let families = Cluster.latency_hists cluster in
  let ep = episode_duration_hdr episodes in
  let families =
    if Hdr.count ep > 0 then
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (("episode.duration", ep) :: families)
    else families
  in
  Json.Obj (List.map (fun (name, h) -> (name, hdr_json h)) families)

let run_json ?workload ?size ?expected ~cluster ~outcome () =
  let journal = Cluster.journal cluster in
  let episodes = Episode.analyze journal in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("meta", meta_json ?workload ?size (Cluster.config cluster));
      ( "outcome",
        outcome_json ?expected outcome ~total_work:(Cluster.total_work cluster)
          ~total_waste:(Cluster.total_waste cluster) );
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Counter.to_alist (Cluster.counters cluster)))
      );
      ("latency", latency_json ~cluster ~episodes);
      ("journal_entries", Json.Int (Journal.length journal));
      ("episodes", Json.List (List.map Episode.to_json episodes));
      ("episode_summary", Episode.aggregate_to_json (Episode.aggregate episodes));
    ]

let write ~path doc = Json.write_file ~path doc
