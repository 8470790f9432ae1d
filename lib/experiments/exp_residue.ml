module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Spawn_state = Recflow_recovery.Spawn_state
module Table = Recflow_stats.Table
module Workload = Recflow_workload.Workload
module Value = Recflow_lang.Value
module Plan = Recflow_fault.Plan

(* Arithmetic padding: [n] no-op terms evaluated before/after the call to
   C, stretching states c and f into windows wide enough to hit. *)
let pad_expr var n =
  String.concat " + " (List.init n (fun _ -> Printf.sprintf "(%s - %s)" var var))

let source =
  Printf.sprintf
    "def gg(w) = pp(w) + 1\n\
     def pp(w) = let r = cc(w + %s) in r + %s\n\
     def cc(w) = spin(w, 0)\n\
     def spin(k, acc) = if k == 0 then acc else spin(k - 1, acc + 1)"
    (pad_expr "w" 150) (pad_expr "r" 150)

let workload =
  {
    Workload.name = "residue_chain";
    description = "G -> P -> C chain with padded spawn-state windows";
    source;
    entry = "gg";
    args = (fun _ -> [ Value.Int 1000 ]);
  }

let g_stamp = Stamp.root

let p_stamp = Stamp.of_digits [ 0 ]

let c_stamp = Stamp.of_digits [ 0; 0 ]

(* [idx] is a run's {!Journal.by_stamp}. *)
let events idx stamp = Option.value ~default:[] (Stamp.Map.find_opt stamp idx)

let first idx stamp pred =
  List.find_map
    (fun (e : Journal.entry) -> if pred e.Journal.event then Some e.Journal.time else None)
    (events idx stamp)

type windows = {
  p_host : int;
  p_spawned : int;
  p_acked : int;
  c_spawned : int;
  c_acked : int;
  c_completed : int;
  c_accepted : int;  (* C's result accepted inside P *)
  p_completed : int;
  p_accepted : int;  (* P's result accepted at G *)
}

let host_in idx stamp =
  List.find_map
    (fun (e : Journal.entry) ->
      match e.Journal.event with Journal.Activated { proc; _ } -> Some proc | _ -> None)
    (events idx stamp)

let measure cfg =
  let r = Harness.probe cfg workload Workload.Small in
  let j = Journal.by_stamp (Cluster.journal r.Harness.cluster) in
  let ev stamp pred = first j stamp pred in
  let get what = function
    | Some t -> t
    | None -> invalid_arg ("exp_residue: missing probe event " ^ what)
  in
  let host = host_in j p_stamp in
  {
    p_host = get "p host" host;
    p_spawned = get "p spawned" (ev p_stamp (function Journal.Spawned _ -> true | _ -> false));
    p_acked = get "p acked" (ev p_stamp (function Journal.Acked _ -> true | _ -> false));
    c_spawned = get "c spawned" (ev c_stamp (function Journal.Spawned _ -> true | _ -> false));
    c_acked = get "c acked" (ev c_stamp (function Journal.Acked _ -> true | _ -> false));
    c_completed =
      get "c completed" (ev c_stamp (function Journal.Completed _ -> true | _ -> false));
    c_accepted =
      get "c accepted" (ev c_stamp (function Journal.Result_accepted _ -> true | _ -> false));
    p_completed =
      get "p completed" (ev p_stamp (function Journal.Completed _ -> true | _ -> false));
    p_accepted =
      get "p accepted" (ev p_stamp (function Journal.Result_accepted _ -> true | _ -> false));
  }

(* The fail instant for each spawn state: the midpoint of its window.
   State a precedes P's existence, so the future host is killed before the
   spawn; state g strikes after P's answer reached G. *)
let window w state =
  let mid a b = if b > a + 1 then Some (a + ((b - a) / 2), Printf.sprintf "[%d,%d)" a b) else None in
  match state with
  | Spawn_state.A -> mid (max 1 (w.p_spawned - 15)) w.p_spawned
  | Spawn_state.B -> mid w.p_spawned w.p_acked
  | Spawn_state.C_established -> mid w.p_acked w.c_spawned
  | Spawn_state.D -> mid w.c_spawned w.c_acked
  | Spawn_state.E -> mid w.c_acked w.c_completed
  | Spawn_state.F -> mid w.c_accepted w.p_completed
  | Spawn_state.G_done -> mid (w.p_accepted + 1) (w.p_accepted + 3)

(* Find a placement seed where G, P and C live on three distinct
   processors, so killing P's node touches neither its parent nor its
   child — the configuration Figures 6-7 analyse. *)
let pick_seed base =
  let rec scan seed =
    if seed > 64 then invalid_arg "exp_residue: no seed separates G, P and C"
    else begin
      let cfg = { base with Config.seed } in
      let r = Harness.probe cfg workload Workload.Small in
      let j = Journal.by_stamp (Cluster.journal r.Harness.cluster) in
      match (host_in j g_stamp, host_in j p_stamp, host_in j c_stamp) with
      | Some g, Some p, Some c when g <> p && c <> p -> seed
      | _ -> scan (seed + 1)
    end
  in
  scan 1

let run ?quick:_ () =
  let base = Config.default ~nodes:4 in
  let mk recovery =
    {
      base with
      Config.recovery;
      policy = Recflow_balance.Policy.Random;
      inline_depth = 3;
      detect_delay = 300;
      bounce_delay = 100;
    }
  in
  let seed = pick_seed (mk Config.Splice) in
  let mk recovery = { (mk recovery) with Config.seed = seed } in
  let table =
    Table.create ~title:"Failing P in every spawn state (Figures 6-7)"
      ~columns:
        [ "state"; "pointers present"; "window"; "fail at"; "recovery"; "re-issues"; "relays";
          "aborts"; "answer ok"; "G respawned" ]
  in
  let all_ok = ref true in
  let windows_ok = ref true in
  List.iter
    (fun recovery ->
      let cfg = mk recovery in
      let w = measure cfg in
      List.iter
        (fun state ->
          match window w state with
          | None ->
            windows_ok := false;
            Table.add_row table
              [ Spawn_state.to_string state; String.concat " " (Spawn_state.pointers state);
                "(empty)"; "-"; Config.recovery_to_string recovery; "-"; "-"; "-"; "-"; "-" ]
          | Some (fail_at, window_str) ->
            let r =
              Harness.run ~drain:true cfg workload Workload.Small
                ~failures:(Plan.single ~time:fail_at w.p_host)
            in
            let j = Cluster.journal r.Harness.cluster in
            let respawns =
              Journal.count j (function Journal.Respawned _ -> true | _ -> false)
            in
            let relays = Journal.count j (function Journal.Relayed _ -> true | _ -> false) in
            let aborts = Journal.count j (function Journal.Aborted _ -> true | _ -> false) in
            (* G must never need regeneration: its stamp never re-spawns. *)
            let g_respawned =
              List.exists
                (fun (e : Journal.entry) ->
                  match e.Journal.event with Journal.Respawned _ -> true | _ -> false)
                (events (Journal.by_stamp j) g_stamp)
            in
            if (not r.Harness.correct) || g_respawned then all_ok := false;
            Table.add_row table
              [
                Spawn_state.to_string state;
                String.concat " " (Spawn_state.pointers state);
                window_str;
                string_of_int fail_at;
                Config.recovery_to_string recovery;
                string_of_int respawns;
                string_of_int relays;
                string_of_int aborts;
                Harness.c_bool r.Harness.correct;
                Harness.c_bool g_respawned;
              ])
        Spawn_state.all;
      Table.add_separator table)
    [ Config.Rollback; Config.Splice ];
  let checks =
    [
      ("every spawn state occupies a non-empty window", !windows_ok);
      ( "failing P in any state, under rollback or splice, is residue-free: the answer is \
         correct and G is never regenerated",
        !all_ok );
    ]
  in
  Report.make ~id:"F6" ~title:"Residue-free recovery across spawn states a-g"
    ~paper_source:"Figures 6-7, §4.3.2"
    ~notes:
      [
        "Windows b and d are the transient states (packet in flight, unacknowledged); the \
         failure there loses the packet and the retained checkpoint regenerates it — \"the \
         system acts as if the first invocation of P did not take place\".";
        "State f (C reduced, result inside P) is the case the paper flags for rollback: the \
         partial result stored in P is lost with it and C must be recomputed by P'.";
      ]
    ~checks [ table ]
