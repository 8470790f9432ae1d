(* Per-batch domain fan-out.

   The experiment sweeps hand this pool a dozen or so whole simulations
   per batch, each milliseconds long, so one atomic index shared by the
   caller and a few freshly spawned helpers balances them as well as any
   work-stealing scheme could.  Spawning and joining a helper costs about
   0.4 ms on a 2-core host, noise next to the items it runs. *)

type t = {
  jobs : int;
  free : int Atomic.t;  (* helper domains not currently lent to a batch *)
}

(* 8 MiB per helper: allocation-heavy simulation items hit the stock
   256k-word nursery every few hundred microseconds, and each minor
   collection synchronises every domain. *)
let helper_minor_heap = 1 lsl 20

let create ?jobs () =
  let jobs =
    match jobs with Some j -> j | None -> max 1 (Domain.recommended_domain_count ())
  in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { jobs; free = Atomic.make (jobs - 1) }

let jobs t = t.jobs

(* Take up to [want] helpers from the budget; a nested batch that finds
   none free simply runs on its own caller. *)
let rec reserve t want =
  let free = Atomic.get t.free in
  let k = min want free in
  if k <= 0 then 0
  else if Atomic.compare_and_set t.free free (free - k) then k
  else reserve t want

let map (type b) t (f : _ -> b) xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.jobs = 1 ->
    (* Strictly sequential in submission order on the caller — the --jobs 1
       determinism oracle. *)
    List.map f xs
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results : b option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f arr.(i) with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let helper () =
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = helper_minor_heap };
      work ()
    in
    let spawn _ =
      match Domain.spawn helper with
      | d -> Some d
      | exception _ ->
        (* out of domains: the batch still completes on fewer *)
        Atomic.incr t.free;
        None
    in
    let helpers = List.filter_map spawn (List.init (reserve t (n - 1)) Fun.id) in
    work ();
    (* [join] orders every helper's writes to [results]/[errors] before
       the reads below. *)
    List.iter
      (fun d ->
        Domain.join d;
        Atomic.incr t.free)
      helpers;
    Array.iter
      (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors;
    Array.to_list (Array.map Option.get results)

let run t thunks = map t (fun f -> f ()) thunks

(* ------------------------------------------------------------------ *)
(* Shared default pool                                                 *)
(* ------------------------------------------------------------------ *)

let default_pool = Atomic.make (create ())

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set default_pool (create ~jobs:j ())

let default () = Atomic.get default_pool
