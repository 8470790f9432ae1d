(* Phase profiler: scoped wall-clock timers with self-time attribution.

   State is sharded per domain through DLS — a domain only ever touches its
   own tally table and span stack, so instrumented hot paths (engine
   dispatch, checkpoint record, recovery splice) take no lock.  The one
   mutex below guards only the registry of per-domain states and is hit
   once per domain lifetime, at first use.  When disabled (the default)
   [time_probe] is a single flag test. *)

type tally = { mutable count : int; mutable total : float; mutable self : float }

type frame = { tally : tally; start : float; mutable child : float }

type dstate = { tallies : (string, tally) Hashtbl.t; mutable stack : frame list }

let enabled = ref false

let registry : dstate list ref = ref []

let registry_mutex = Mutex.create ()

let dkey =
  Domain.DLS.new_key (fun () ->
      let s = { tallies = Hashtbl.create 16; stack = [] } in
      Mutex.lock registry_mutex;
      registry := s :: !registry;
      Mutex.unlock registry_mutex;
      s)

let set_enabled b = enabled := b

let is_enabled () = !enabled

(* Zero tallies in place rather than [Hashtbl.reset]: {!probe} handles
   cache the tally object per domain, so its identity must survive a
   reset. *)
let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun _ (t : tally) ->
          t.count <- 0;
          t.total <- 0.0;
          t.self <- 0.0)
        s.tallies;
      s.stack <- [])
    !registry;
  Mutex.unlock registry_mutex

let tally_of s name =
  match Hashtbl.find_opt s.tallies name with
  | Some t -> t
  | None ->
    let t = { count = 0; total = 0.0; self = 0.0 } in
    Hashtbl.add s.tallies name t;
    t

let span s t f =
  let fr = { tally = t; start = Unix.gettimeofday (); child = 0.0 } in
  s.stack <- fr :: s.stack;
  let finish () =
    let dt = Unix.gettimeofday () -. fr.start in
    (match s.stack with _ :: rest -> s.stack <- rest | [] -> ());
    fr.tally.count <- fr.tally.count + 1;
    fr.tally.total <- fr.tally.total +. dt;
    fr.tally.self <- fr.tally.self +. (dt -. fr.child);
    match s.stack with parent :: _ -> parent.child <- parent.child +. dt | [] -> ()
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* A probe caches its tally per domain so the hot path skips the string
   hash and [find_opt] — each span is then just the two clock reads plus
   the frame push.  The cached tally lives in the domain's tally table
   (and {!reset} zeroes tallies in place), so snapshot/reset see it. *)
type nonrec probe = tally Domain.DLS.key

let probe name =
  Domain.DLS.new_key (fun () -> tally_of (Domain.DLS.get dkey) name)

let time_probe p f =
  if not !enabled then f ()
  else begin
    let s = Domain.DLS.get dkey in
    span s (Domain.DLS.get p) f
  end

type entry = { name : string; count : int; total_s : float; self_s : float }

let snapshot () =
  let merged : (string, tally) Hashtbl.t = Hashtbl.create 16 in
  Mutex.lock registry_mutex;
  let states = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun name (t : tally) ->
          let m =
            match Hashtbl.find_opt merged name with
            | Some m -> m
            | None ->
              let m = { count = 0; total = 0.0; self = 0.0 } in
              Hashtbl.add merged name m;
              m
          in
          m.count <- m.count + t.count;
          m.total <- m.total +. t.total;
          m.self <- m.self +. t.self)
        s.tallies)
    states;
  Hashtbl.fold
    (fun name (t : tally) acc ->
      (* [reset] zeroes tallies in place (probe handles cache them), so a
         phase not entered since the last reset shows up here as an
         all-zero tally — omit it. *)
      if t.count = 0 then acc
      else { name; count = t.count; total_s = t.total; self_s = t.self } :: acc)
    merged []
  |> List.sort (fun a b -> String.compare a.name b.name)

let schema = "recflow.profile/1"

let to_json ?wall_s ?(meta = []) () =
  let phases =
    List.map
      (fun e ->
        ( e.name,
          Json.Obj
            [
              ("count", Json.Int e.count);
              ("total_s", Json.Float e.total_s);
              ("self_s", Json.Float e.self_s);
            ] ))
      (snapshot ())
  in
  Json.Obj
    (("schema", Json.Str schema)
     :: (match wall_s with Some w -> [ ("wall_s", Json.Float w) ] | None -> [])
    @ (match meta with [] -> [] | m -> [ ("meta", Json.Obj m) ])
    @ [ ("phases", Json.Obj phases) ])

let pp_report ppf () =
  let entries = snapshot () in
  if entries = [] then Format.fprintf ppf "profile: no phases recorded@."
  else begin
    let entries = List.sort (fun a b -> compare b.self_s a.self_s) entries in
    let total_self = List.fold_left (fun acc e -> acc +. e.self_s) 0.0 entries in
    Format.fprintf ppf "== phase profile ==@.";
    Format.fprintf ppf "%-28s %10s %12s %12s %7s@." "phase" "count" "total(ms)" "self(ms)"
      "self%";
    List.iter
      (fun e ->
        let pct = if total_self > 0.0 then 100.0 *. e.self_s /. total_self else 0.0 in
        Format.fprintf ppf "%-28s %10d %12.2f %12.2f %6.1f%%@." e.name e.count
          (1000.0 *. e.total_s) (1000.0 *. e.self_s) pct)
      entries
  end
