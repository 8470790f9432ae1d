(* Isolated layer replays.  [Cluster] hides the engine, the evaluator, the
   journal and the router behind one event loop, so the traced run cannot
   time them directly; instead each replay drives one layer through its
   public API on inputs captured from the run, and reports nanoseconds per
   operation.  The replays run after the measured call, outside its wall
   window. *)

module Engine = Recflow_sim.Engine
module Rng = Recflow_sim.Rng
module Graph = Recflow_lang.Graph
module Instance = Recflow_lang.Instance
module Eval_serial = Recflow_lang.Eval_serial
module Value = Recflow_lang.Value
module Journal = Recflow_machine.Journal
module Router = Recflow_net.Router
module Stamp = Recflow_recovery.Stamp

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ns_per dt n = dt *. 1e9 /. float_of_int (max 1 n)

(* [events] no-op events spread over [span] ticks, with a standing queue of
   [queue] pending events (each dispatch schedules its successor).  The
   delays are drawn before the clock starts. *)
let engine ~events ~span ~queue =
  let queue = max 1 (min queue events) in
  let gap = max 1 (2 * span * queue / max 1 events) in
  let rng = Rng.create events in
  let delays = Array.init events (fun _ -> Rng.int rng gap) in
  let e = Engine.create () in
  let next = ref 0 in
  let push () =
    if !next < events then begin
      Engine.schedule e ~delay:(Array.unsafe_get delays !next) ();
      incr next
    end
  in
  let (), dt =
    timed (fun () ->
        for _ = 1 to queue do
          push ()
        done;
        Engine.run e (fun _ () -> push ()))
  in
  ns_per dt (Engine.events_dispatched e)

(* The workload's own call tree, [roots] times, evaluated serially through
   [Graph]/[Instance] exactly as a node steps a task: calls at the
   machine's inline depth go to the serial evaluator as the cluster's
   inline path does.  Every task instance and every inlined call counts as
   one activation.  Returns ns per activation and the last root's value. *)
let lang ~program ~entry ~args ~inline_depth ~roots =
  let activations = ref 0 in
  let answer, dt =
    timed (fun () ->
        let lib = Graph.compile_program program in
        let rec call depth fname args =
          incr activations;
          if depth >= inline_depth then fst (Eval_serial.eval program fname (Array.to_list args))
          else
            let inst = Instance.create (Graph.find_exn lib fname) args in
            let rec loop () =
              match Instance.step inst with
              | Instance.Work _ -> loop ()
              | Instance.Spawn { slot; fname; args } ->
                Instance.supply inst slot (call (depth + 1) fname args);
                loop ()
              | Instance.Finished v -> v
              | Instance.Blocked -> failwith "lang replay: blocked with every child supplied"
              | Instance.Failed msg -> failwith ("lang replay: " ^ msg)
            in
            loop ()
        in
        let args = Array.of_list args in
        let last = ref (Value.Int 0) in
        for _ = 1 to roots do
          last := call 0 entry args
        done;
        !last)
  in
  (ns_per dt !activations, answer)

(* The captured entry stream, re-recorded into a fresh journal that retains
   (or streams) as the workload's config does. *)
let journal ~retain entries =
  let j = Journal.create ~retain () in
  let (), dt =
    timed (fun () ->
        Array.iter
          (fun (e : Journal.entry) -> Journal.record j ~time:e.time ~stamp:e.stamp e.event)
          entries)
  in
  ns_per dt (Array.length entries)

module Stamp_tbl = Hashtbl.Make (struct
  type t = Stamp.t

  let equal = Stamp.equal

  let hash = Stamp.hash
end)

type route_op = Kill of int | Route of int * int

(* Source/destination pairs of the task packets and results the run sent,
   recovered from the journal: a [Spawned] travels from the parent's host
   to [dest], a [Completed] result from [proc] back to the parent's host.
   [Failure] entries become kills at their place in the stream.  The
   super-root (a negative id) is off the network and skipped. *)
let route_ops entries =
  let host = Stamp_tbl.create 4096 in
  let parent_host stamp =
    match Stamp.parent stamp with
    | Some p -> Stamp_tbl.find_opt host p
    | None -> None
  in
  let ops = ref [] in
  let route src dst = if src >= 0 && dst >= 0 then ops := Route (src, dst) :: !ops in
  Array.iter
    (fun (e : Journal.entry) ->
      match e.event with
      | Journal.Activated { proc; _ } -> Stamp_tbl.replace host e.stamp proc
      | Journal.Spawned { dest; _ } -> Option.iter (fun src -> route src dest) (parent_host e.stamp)
      | Journal.Completed { proc; _ } ->
        Option.iter (fun dst -> route proc dst) (parent_host e.stamp)
      | Journal.Failure { proc } -> ops := Kill proc :: !ops
      | _ -> ())
    entries;
  Array.of_list (List.rev !ops)

(* [Router.distance] over the captured pairs on the run's topology, kills
   applied in stream order.  Returns ns per routed pair and the pair
   count. *)
let distance ~topology ops =
  let routes = Array.fold_left (fun n op -> match op with Route _ -> n + 1 | Kill _ -> n) 0 ops in
  let sink = ref 0 in
  let (), dt =
    timed (fun () ->
        let r = Router.create topology in
        Array.iter
          (function
            | Kill p -> Router.kill r p
            | Route (a, b) -> (
              match Router.distance r a b with Some d -> sink := !sink + d | None -> incr sink))
          ops)
  in
  ignore (Sys.opaque_identity !sink);
  (ns_per dt routes, routes)
