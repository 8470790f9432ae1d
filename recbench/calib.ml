(* Host-speed probe: a fixed allocation- and memory-bound loop that shares
   no code with recflow, timed in its own process.  run.py runs it next to
   every repetition and scales host times by how fast it ran, so a shared
   machine drifting faster or slower between runs does not read as a change
   in recflow.  Prints the loop's wall time and CPU time in seconds. *)

let () =
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  let n = 1 lsl 20 in
  let cells = Array.init n (fun i -> Some i) in
  let rng = ref 12345 and acc = ref 0 in
  for i = 0 to n - 1 do
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    (match Array.unsafe_get cells (!rng land (n - 1)) with Some v -> acc := !acc + v | None -> ());
    Array.unsafe_set cells i (Some (!acc land 0xffff))
  done;
  ignore (Sys.opaque_identity !acc);
  Printf.printf "%.6f %.6f\n" (Unix.gettimeofday () -. t0) (Sys.time () -. c0)
