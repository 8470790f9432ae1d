(* Tests for the event-sink abstraction and the journal's JSONL rendering. *)

module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Sink = Recflow_obs_core.Sink
module Json = Recflow_obs_core.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Sink variants ---------------- *)

let sink_of_fun_and_close () =
  let got = ref [] in
  let closed = ref 0 in
  let s = Sink.of_fun ~close:(fun () -> incr closed) (fun x -> got := x :: !got) in
  List.iter (Sink.emit s) [ 1; 2 ];
  Sink.close s;
  Sink.close s;
  (* closed sinks swallow emits silently *)
  Sink.emit s 3;
  check "values delivered in order" true (List.rev !got = [ 1; 2 ]);
  check_int "close is idempotent" 1 !closed;
  check_int "emit after close is a no-op" 2 (Sink.emitted s)

let sink_tee () =
  let a = ref [] and b = ref [] in
  let s = Sink.tee (Sink.of_fun (fun x -> a := x :: !a)) (Sink.of_fun (fun x -> b := x :: !b)) in
  List.iter (Sink.emit s) [ 1; 2; 3 ];
  check "both sides see everything" true (List.rev !a = [ 1; 2; 3 ] && List.rev !b = [ 1; 2; 3 ])

let sink_file_jsonl () =
  let path = Filename.temp_file "recflow_sink" ".jsonl" in
  let s = Sink.file ~render:string_of_int path in
  List.iter (Sink.emit s) [ 10; 20; 30 ];
  Sink.close s;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove path;
  check "one line per value" true (lines = [ "10"; "20"; "30" ])

(* ---------------- Journal entries as JSON lines ---------------- *)

let parse_line e =
  match Json.parse (Journal.to_json_line e) with
  | Ok j -> j
  | Error err -> Alcotest.failf "unparsable line: %s" err

let journal_json_line () =
  List.iter
    (fun event ->
      let j = parse_line { Journal.time = 42; stamp = Stamp.child Stamp.root 3; event } in
      check "time" true (Option.bind (Json.member "time" j) Json.int = Some 42);
      check "stamp" true (Option.bind (Json.member "stamp" j) Json.str = Some "3");
      check "reason round-trips escaping" true
        (Option.bind (Json.member "reason" j) Json.str = Some "bad \"thing\""))
    [
      Journal.Respawned { task = 7; dest = 2; reason = "bad \"thing\"" };
      Journal.Relay_dropped { at = 1; reason = "bad \"thing\"" };
    ]

(* One value of every constructor.  [to_json_line] matches exhaustively,
   so a new event cannot go unrendered; it must still be listed here. *)
let every_event =
  [
    Journal.Spawned { task = 1; dest = 2; replica = 1 };
    Journal.Activated { task = 1; proc = 2 };
    Journal.Acked { task = 1; proc = 2 };
    Journal.Completed { task = 1; proc = 2; work = 30 };
    Journal.Inlined { parent_task = 1; proc = 2; work = 5 };
    Journal.Aborted { task = 1; proc = 2; work = 4 };
    Journal.Lost { task = 1; proc = 2; work = 9 };
    Journal.Respawned { task = 3; dest = 0; reason = "notice" };
    Journal.Inherited { orphan_task = 1; proc = 2 };
    Journal.Result_accepted { task = 1 };
    Journal.Duplicate_ignored { task = 1 };
    Journal.Relayed { via = 0 };
    Journal.Relay_dropped { at = 0; reason = "dead" };
    Journal.Orphan_dropped { task = 1 };
    Journal.Failure { proc = 2 };
  ]

let journal_json_every_event () =
  check_int "one sample per constructor" 15
    (List.length (List.sort_uniq compare (List.map Journal.event_label every_event)));
  List.iter
    (fun event ->
      let label = Journal.event_label event in
      match parse_line { Journal.time = 5; stamp = Stamp.root; event } with
      | Json.Obj _ as j ->
        check (label ^ " time") true (Option.bind (Json.member "time" j) Json.int = Some 5);
        check (label ^ " stamp") true (Option.bind (Json.member "stamp" j) Json.str <> None);
        check (label ^ " event") true
          (Option.bind (Json.member "event" j) Json.str = Some label)
      | _ -> Alcotest.failf "%s: not an object" label)
    every_event

let suites =
  [
    ( "obs.sink",
      [
        Alcotest.test_case "of_fun + close" `Quick sink_of_fun_and_close;
        Alcotest.test_case "tee" `Quick sink_tee;
        Alcotest.test_case "file jsonl" `Quick sink_file_jsonl;
      ] );
    ( "journal.jsonl",
      [
        Alcotest.test_case "json line escaping" `Quick journal_json_line;
        Alcotest.test_case "every event renders" `Quick journal_json_every_event;
      ] );
  ]
