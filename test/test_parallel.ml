(* Tests for the domain pool and the parallel experiment harness: ordering,
   exception propagation, and the determinism contract — identical results
   at any pool width. *)

module Pool = Recflow_parallel.Pool
module Harness = Recflow_experiments.Harness
module Report = Recflow_experiments.Report
module Workload = Recflow_workload.Workload
module Rng = Recflow_sim.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool ~jobs f = f (Pool.create ~jobs ())

(* Run [f] with the default pool set to [jobs], restoring width 1 after so
   tests do not leak their width into each other. *)
let with_default_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

(* ---------------- Pool ---------------- *)

let pool_map_ordering () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun p ->
          let xs = List.init 100 Fun.id in
          let ys = Pool.map p (fun x -> x * x) xs in
          Alcotest.(check (list int))
            (Printf.sprintf "submission order at jobs=%d" jobs)
            (List.map (fun x -> x * x) xs)
            ys))
    [ 1; 2; 4 ]

let pool_map_empty_and_singleton () =
  with_pool ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "empty" [] (Pool.map p (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map p (fun x -> x + 1) [ 6 ]))

exception Boom of int

let pool_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun p ->
          check
            (Printf.sprintf "raises at jobs=%d" jobs)
            true
            (try
               ignore (Pool.map p (fun x -> if x = 3 then raise (Boom x) else x) [ 1; 2; 3; 4 ]);
               false
             with Boom 3 -> true)))
    [ 1; 4 ]

let pool_lowest_index_exception () =
  (* Several tasks fail; the batch must settle and re-raise the failure of
     the lowest submission index, not whichever finished first. *)
  with_pool ~jobs:4 (fun p ->
      check "lowest index wins" true
        (try
           ignore
             (Pool.map p
                (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
                [ 1; 2; 3; 4; 5; 6 ]);
           false
         with Boom 2 -> true))

let pool_survives_exception () =
  (* A failed batch must not poison the pool for later batches. *)
  with_pool ~jobs:2 (fun p ->
      (try ignore (Pool.map p (fun _ -> raise (Boom 0)) [ 1; 2 ]) with Boom _ -> ());
      Alcotest.(check (list int)) "next batch fine" [ 2; 4 ] (Pool.map p (fun x -> 2 * x) [ 1; 2 ]))

let pool_nested_map () =
  (* Nested submissions (an outer item fanning out an inner sweep, as
     exp_salvage does) must not deadlock even when the pool is narrower
     than the outer batch. *)
  with_pool ~jobs:2 (fun p ->
      let got =
        Pool.map p (fun i -> List.fold_left ( + ) 0 (Pool.map p (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested sums" [ 36; 66; 96; 126 ] got)

let nested_map_bounded () =
  (* An inner batch only gets helpers the pool has free, so however the
     maps nest, no more than [jobs] items ever run at once.  Each item
     spins briefly so overlapping items really overlap. *)
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun p ->
          let running = Atomic.make 0 in
          let peak = Atomic.make 0 in
          let rec raise_peak v =
            let cur = Atomic.get peak in
            if v > cur && not (Atomic.compare_and_set peak cur v) then raise_peak v
          in
          let leaf j =
            raise_peak (Atomic.fetch_and_add running 1 + 1);
            let t0 = Unix.gettimeofday () in
            while Unix.gettimeofday () -. t0 < 0.005 do
              Domain.cpu_relax ()
            done;
            Atomic.decr running;
            j
          in
          let got =
            Pool.map p
              (fun i -> List.fold_left ( + ) 0 (Pool.map p leaf (List.init 6 (fun j -> i + j))))
              (List.init 6 Fun.id)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "nested sums at jobs=%d" jobs)
            (List.init 6 (fun i -> (6 * i) + 15))
            got;
          check (Printf.sprintf "peak %d <= jobs=%d" (Atomic.get peak) jobs) true
            (Atomic.get peak <= jobs);
          (* Failures in several inner batches: the outer caller sees the
             inner batch of the lowest outer index, and within it the
             lowest inner index. *)
          check
            (Printf.sprintf "inner error reaches the caller at jobs=%d" jobs)
            true
            (try
               ignore
                 (Pool.map p
                    (fun i ->
                      Pool.map p
                        (fun j -> if i >= 2 && j >= 1 then raise (Boom ((10 * i) + j)) else j)
                        [ 0; 1; 2; 3 ])
                    [ 0; 1; 2; 3; 4 ]);
               false
             with Boom 21 -> true)))
    [ 2; 4 ]

let pool_jobs_clamped () =
  with_pool ~jobs:1 (fun p -> check_int "jobs 1" 1 (Pool.jobs p));
  check "jobs 0 rejected" true
    (try
       ignore (Pool.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true)

let cross_pool_nested_map () =
  (* Items of pool A each fanning out through pool B: every pool lends
     helpers from its own budget, so the nesting needs no coordination
     between them.  Repeated rounds reuse both pools. *)
  with_pool ~jobs:2 (fun a ->
      with_pool ~jobs:2 (fun b ->
          for _round = 1 to 3 do
            let got =
              Pool.map a
                (fun i ->
                  let inner = Pool.map b (fun j -> (100 * i) + j) [ 1; 2; 3 ] in
                  List.fold_left ( + ) 0 inner)
                (List.init 40 Fun.id)
            in
            let expect = List.init 40 (fun i -> (300 * i) + 6) in
            Alcotest.(check (list int)) "cross-pool nested sums" expect got
          done))

let pool_run_thunks () =
  with_pool ~jobs:2 (fun p ->
      Alcotest.(check (list int)) "run" [ 10; 20 ] (Pool.run p [ (fun () -> 10); (fun () -> 20) ]))

(* ---------------- Harness determinism across pool widths ---------------- *)

(* The acceptance bar of the runner: a full experiment report rendered at
   --jobs 1 and at --jobs 4 must be byte-identical. Exercised here on the
   quick overhead sweep (the widest fan-out of the quick set). *)
let report_identical_across_widths () =
  let render () = Report.to_markdown (Recflow_experiments.Exp_overhead.run ~quick:true ()) in
  let seq = with_default_jobs 1 render in
  let par = with_default_jobs 4 render in
  Alcotest.(check string) "jobs=1 and jobs=4 markdown identical" seq par

let run_many_matches_list_map () =
  with_default_jobs 4 (fun () ->
      let xs = List.init 50 Fun.id in
      Alcotest.(check (list int)) "run_many = List.map" (List.map succ xs)
        (Harness.run_many succ xs))

let run_many_seeded_deterministic () =
  (* Element i's stream depends only on (seed, i): same at any width, and
     stable when the list grows a tail. *)
  let f ~rng x = (x, Rng.int rng 1_000_000) in
  let narrow = with_default_jobs 1 (fun () -> Harness.run_many_seeded ~seed:11 f [ 1; 2; 3; 4 ]) in
  let wide = with_default_jobs 4 (fun () -> Harness.run_many_seeded ~seed:11 f [ 1; 2; 3; 4 ]) in
  Alcotest.(check (list (pair int int))) "width-independent" narrow wide;
  let longer = with_default_jobs 2 (fun () -> Harness.run_many_seeded ~seed:11 f [ 1; 2; 3; 4; 5 ]) in
  Alcotest.(check (list (pair int int)))
    "prefix stable when the sweep grows" narrow
    (List.filteri (fun i _ -> i < 4) longer);
  let reseeded = with_default_jobs 2 (fun () -> Harness.run_many_seeded ~seed:12 f [ 1; 2; 3; 4 ]) in
  check "seed matters" true (narrow <> reseeded)

let obs_hook_complete_under_parallel_runs () =
  (* Every harness run must fire the hook exactly once even when runs
     execute on pool domains; the harness serialises hook calls under its
     mutex, so a plain counter and list suffice. *)
  List.iter
    (fun jobs ->
      let calls = ref 0 in
      let names = ref [] in
      Harness.set_obs_hook
        (Some
           (fun info run ->
             incr calls;
             names := info.Harness.workload_name :: !names;
             check "hook sees a finished run" true run.Harness.correct));
      Fun.protect
        ~finally:(fun () -> Harness.set_obs_hook None)
        (fun () ->
          with_default_jobs jobs (fun () ->
              let cfg seed = { (Harness.Config.default ~nodes:4) with Harness.Config.seed } in
              let runs =
                Harness.run_many
                  (fun seed -> Harness.probe (cfg seed) Workload.fib Workload.Tiny)
                  [ 1; 2; 3; 4; 5; 6 ]
              in
              let at = Printf.sprintf " at jobs=%d" jobs in
              check_int ("all runs returned" ^ at) 6 (List.length runs);
              check_int ("hook fired once per run" ^ at) 6 !calls;
              check ("hook saw the workload" ^ at) true (List.for_all (( = ) "fib") !names))))
    [ 2; 4 ]

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "map ordering" `Quick pool_map_ordering;
        Alcotest.test_case "empty and singleton" `Quick pool_map_empty_and_singleton;
        Alcotest.test_case "exception propagates" `Quick pool_exception_propagates;
        Alcotest.test_case "lowest-index exception" `Quick pool_lowest_index_exception;
        Alcotest.test_case "survives exception" `Quick pool_survives_exception;
        Alcotest.test_case "nested map" `Quick pool_nested_map;
        Alcotest.test_case "nested map bounded by jobs" `Quick nested_map_bounded;
        Alcotest.test_case "jobs validation" `Quick pool_jobs_clamped;
        Alcotest.test_case "cross-pool nested map" `Quick cross_pool_nested_map;
        Alcotest.test_case "run thunks" `Quick pool_run_thunks;
      ] );
    ( "parallel.harness",
      [
        Alcotest.test_case "report identical across widths" `Quick report_identical_across_widths;
        Alcotest.test_case "run_many = List.map" `Quick run_many_matches_list_map;
        Alcotest.test_case "run_many_seeded deterministic" `Quick run_many_seeded_deterministic;
        Alcotest.test_case "obs hook complete under jobs=4" `Quick obs_hook_complete_under_parallel_runs;
      ] );
  ]
