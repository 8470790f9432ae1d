(* The three benchmark workloads.  Each is a pure function of the workload
   seed: [Config.seed], the fault_storm kill plan and the service arrival
   stream (which [Service.run] draws from [Config.seed]) all derive from
   it, so one seed names one input exactly. *)

module Config = Recflow_machine.Config
module Workload = Recflow_workload.Workload
module Plan = Recflow_fault.Plan
module Chaos = Recflow_net.Chaos
module Rng = Recflow_sim.Rng
module Value = Recflow_lang.Value

type kind =
  | Batch  (** one program: [Cluster.start] then [Cluster.run ~drain:true] *)
  | Stream of { requests : int }  (** [Service.run] over an open-loop stream *)

type t = {
  name : string;
  workload : Workload.t;
  size : Workload.size;
  config : Config.t;
  plan : root:int option -> Plan.t;
      (** the kill plan, given the processor hosting the root task once it
          is dispatched ([None] in a stream, which has no single root) *)
  kind : kind;
  expected : unit -> Value.t;
      (** the reference answer; a check, computed outside every timed
          window *)
}

(* tree_scale: the fault-free host hot loop at a large working set. *)
let tree_depth = 16

let tree_grain = 20

let tree_scale seed =
  {
    name = "tree_scale";
    workload = Workload.synthetic ~branching:2 ~depth:tree_depth ~grain:tree_grain;
    size = Workload.Medium;
    config =
      {
        (Config.default ~nodes:256) with
        Config.policy = Recflow_balance.Policy.Static_hash;
        inline_depth = tree_depth;
        journal_retain = false;
        seed;
      };
    plan = (fun ~root:_ -> []);
    kind = Batch;
    expected = (fun () -> Value.Int (tree_grain * (1 lsl tree_depth)));
  }

(* fault_storm: twelve kills over a chaotic mesh, so every recovery path
   and the reliable transport do real work.  The fault-free answer lands
   near tick 5,300; the kills fall in ticks 300-4500.  They never strike
   the root's host: that one kill makes the super-root re-dispatch the
   whole tree and nearly doubles the run, so a seed that drew it would
   measure a different workload from one that did not. *)
let storm_kills = 12

let storm_plan seed ~root =
  let procs = 64 in
  let burst =
    Plan.random_burst
      ~rng:(Rng.create (seed lxor 0x5f0a17))
      ~procs:(procs - 1) ~count:storm_kills ~lo:300 ~hi:4500
  in
  match root with
  | None -> burst
  | Some r -> List.map (fun (t, v) -> (t, if v >= r then v + 1 else v)) burst

let fault_storm seed =
  let chaos =
    Chaos.none |> Plan.drop_rate 0.02 |> Plan.duplicate_rate 0.02
    |> Plan.reorder ~rate:0.05 ~spread:20
  in
  let config =
    {
      (Config.default ~nodes:64) with
      Config.topology = Recflow_net.Topology.Mesh (8, 8);
      ancestor_depth = 2;
      reliable = true;
      chaos;
      seed;
    }
  in
  {
    name = "fault_storm";
    workload = Workload.fib;
    size = Workload.Large;
    config;
    plan = storm_plan seed;
    kind = Batch;
    expected = (fun () -> Workload.expected Workload.fib Workload.Large);
  }

(* service_stream: hundreds of shallow fib trees under one super-root,
   three-way voting, three kills at fixed ticks mid-stream.  The stream
   length is part of the workload: host cost per request grows with it. *)
let service_requests = 400

let service_stream seed =
  let base = Config.default ~nodes:16 in
  {
    name = "service_stream";
    workload = Workload.fib;
    size = Workload.Tiny;
    config =
      {
        base with
        Config.seed;
        service =
          { Config.arrival_mean = 300.0; replicas = 3; max_inflight = 64; shed_suspect_frac = 0.9 };
      };
    plan = (fun ~root:_ -> [ (30_000, 3); (60_000, 7); (90_000, 11) ]);
    kind = Stream { requests = service_requests };
    expected = (fun () -> Workload.expected Workload.fib Workload.Tiny);
  }

let find name seed =
  [ tree_scale; fault_storm; service_stream ]
  |> List.map (fun make -> make seed)
  |> List.find_opt (fun w -> w.name = name)
