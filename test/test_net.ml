(* Tests for topologies, routing and latency. *)

module Topology = Recflow_net.Topology
module Router = Recflow_net.Router
module Latency = Recflow_net.Latency

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

let topo_sizes () =
  check_int "full" 8 (Topology.size (Topology.Full 8));
  check_int "ring" 6 (Topology.size (Topology.Ring 6));
  check_int "mesh" 12 (Topology.size (Topology.Mesh (3, 4)));
  check_int "cube" 8 (Topology.size (Topology.Hypercube 3))

let topo_neighbors () =
  Alcotest.(check (list int)) "full 4, node 1" [ 0; 2; 3 ]
    (Topology.neighbors (Topology.Full 4) 1);
  Alcotest.(check (list int)) "ring 5, node 0" [ 1; 4 ] (Topology.neighbors (Topology.Ring 5) 0);
  Alcotest.(check (list int)) "ring 2" [ 1 ] (Topology.neighbors (Topology.Ring 2) 0);
  Alcotest.(check (list int)) "mesh 3x3 centre" [ 1; 3; 5; 7 ]
    (Topology.neighbors (Topology.Mesh (3, 3)) 4);
  Alcotest.(check (list int)) "mesh 3x3 corner" [ 1; 3 ]
    (Topology.neighbors (Topology.Mesh (3, 3)) 0);
  Alcotest.(check (list int)) "cube 3, node 0" [ 1; 2; 4 ]
    (Topology.neighbors (Topology.Hypercube 3) 0)

let topo_distances () =
  check_int "full" 1 (Topology.ideal_distance (Topology.Full 8) 0 5);
  check_int "ring wraps" 2 (Topology.ideal_distance (Topology.Ring 6) 0 4);
  check_int "mesh manhattan" 4 (Topology.ideal_distance (Topology.Mesh (3, 3)) 0 8);
  check_int "cube popcount" 3 (Topology.ideal_distance (Topology.Hypercube 3) 0 7);
  check_int "self" 0 (Topology.ideal_distance (Topology.Ring 6) 3 3)

let topo_diameter () =
  check_int "ring" 3 (Topology.diameter (Topology.Ring 6));
  check_int "mesh" 4 (Topology.diameter (Topology.Mesh (3, 3)));
  check_int "cube" 3 (Topology.diameter (Topology.Hypercube 3));
  check_int "full" 1 (Topology.diameter (Topology.Full 9))

let topo_strings () =
  List.iter
    (fun t ->
      match Topology.of_string (Topology.to_string t) with
      | Ok t' -> check "round trip" true (t = t')
      | Error e -> Alcotest.fail e)
    [ Topology.Full 4; Topology.Ring 7; Topology.Mesh (2, 5); Topology.Hypercube 4 ];
  List.iter
    (fun s ->
      match Topology.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "full"; "mesh:3"; "ring:0"; "cube:-1"; "torus:4"; "mesh:2x"; "" ]

let topo_out_of_range () =
  check "bad node rejected" true
    (try
       ignore (Topology.neighbors (Topology.Ring 4) 9);
       false
     with Invalid_argument _ -> true)

let dist_symmetric =
  QCheck.Test.make ~name:"ideal_distance symmetric on mesh" ~count:200
    QCheck.(pair (int_range 0 11) (int_range 0 11))
    (fun (a, b) ->
      let t = Topology.Mesh (3, 4) in
      Topology.ideal_distance t a b = Topology.ideal_distance t b a)

let dist_matches_bfs =
  QCheck.Test.make ~name:"closed-form distance equals BFS on live router" ~count:100
    QCheck.(triple (oneofl [ 0; 1; 2 ]) (int_range 0 7) (int_range 0 7))
    (fun (which, a, b) ->
      let t =
        match which with 0 -> Topology.Ring 8 | 1 -> Topology.Hypercube 3 | _ -> Topology.Mesh (2, 4)
      in
      let r = Router.create t in
      Router.distance r a b = Some (Topology.ideal_distance t a b))

let router_kill () =
  let r = Router.create (Topology.Full 4) in
  check "alive initially" true (Router.alive r 2);
  Router.kill r 2;
  check "dead" false (Router.alive r 2);
  Alcotest.(check (list int)) "alive nodes" [ 0; 1; 3 ] (Router.alive_nodes r);
  Alcotest.(check (option int)) "distance to dead" None (Router.distance r 0 2);
  Alcotest.(check (option int)) "distance from dead" None (Router.distance r 2 0);
  Router.revive r 2;
  check "revived" true (Router.alive r 2)

let router_partition () =
  (* killing two opposite nodes of a ring cuts it in half *)
  let r = Router.create (Topology.Ring 6) in
  Router.kill r 0;
  Router.kill r 3;
  check "1-2 still connected" true (Router.reachable r 1 2);
  check "1-4 cut" false (Router.reachable r 1 4);
  Alcotest.(check (option int)) "4-5 side intact" (Some 1) (Router.distance r 4 5);
  Alcotest.(check (option int)) "1-5 cut" None (Router.distance r 1 5)

let router_reroute () =
  (* with a dead shortcut the route goes the long way round *)
  let r = Router.create (Topology.Ring 6) in
  Alcotest.(check (option int)) "short way" (Some 2) (Router.distance r 0 2);
  Router.kill r 1;
  Alcotest.(check (option int)) "long way" (Some 4) (Router.distance r 0 2)

let router_revive_distances () =
  (* regression: revive must invalidate whatever route state kill built,
     not merely flip the liveness bit *)
  let r = Router.create (Topology.Ring 6) in
  Router.kill r 1;
  Alcotest.(check (option int)) "long way while dead" (Some 4) (Router.distance r 0 2);
  Router.revive r 1;
  Alcotest.(check (option int)) "short way restored" (Some 2) (Router.distance r 0 2);
  Alcotest.(check (list int)) "all alive again" [ 0; 1; 2; 3; 4; 5 ] (Router.alive_nodes r)

let router_alive_but_unreachable () =
  (* a live node whose every route is severed answers exactly like a dead
     one — unreachability *is* failure to the bounce-based detector (§1) *)
  let r = Router.create (Topology.Ring 6) in
  Router.kill r 1;
  Router.kill r 3;
  check "node 2 still alive" true (Router.alive r 2);
  check "but unreachable" false (Router.reachable r 0 2);
  Alcotest.(check (option int)) "distance reports none, like a dead node" None
    (Router.distance r 0 2);
  check "dead node agrees" false (Router.reachable r 0 1);
  Router.revive r 3;
  Alcotest.(check (option int)) "reviving the cut vertex restores a route" (Some 4)
    (Router.distance r 0 2)

let latency_fixed () =
  List.iter
    (fun hops -> check_int (Printf.sprintf "%d hops" hops) (20 + (10 * hops)) (Latency.delay ~hops))
    [ 0; 1; 3; 12 ]

(* The model has no jitter: a delay is a function of the hop count alone. *)
let latency_jitter () =
  check_int "repeatable" (Latency.delay ~hops:5) (Latency.delay ~hops:5);
  check "negative hops rejected" true
    (try
       ignore (Latency.delay ~hops:(-1));
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "net.topology",
      [
        Alcotest.test_case "sizes" `Quick topo_sizes;
        Alcotest.test_case "neighbors" `Quick topo_neighbors;
        Alcotest.test_case "distances" `Quick topo_distances;
        Alcotest.test_case "diameter" `Quick topo_diameter;
        Alcotest.test_case "strings" `Quick topo_strings;
        Alcotest.test_case "out of range" `Quick topo_out_of_range;
        qtest dist_symmetric;
        qtest dist_matches_bfs;
      ] );
    ( "net.router",
      [
        Alcotest.test_case "kill/revive" `Quick router_kill;
        Alcotest.test_case "partition" `Quick router_partition;
        Alcotest.test_case "reroute" `Quick router_reroute;
        Alcotest.test_case "revive recomputes distances" `Quick router_revive_distances;
        Alcotest.test_case "alive but unreachable = dead" `Quick router_alive_but_unreachable;
      ] );
    ( "net.latency",
      [
        Alcotest.test_case "fixed" `Quick latency_fixed;
        Alcotest.test_case "jitter" `Quick latency_jitter;
      ] );
  ]
