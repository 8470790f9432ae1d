(** X8 — Scale sweep: the machine at 1024 processors and a million tasks.

    §1 sells applicative systems on "aggregation of processors"; this
    sweep checks the simulator itself can follow the claim two orders of
    magnitude past the quantitative experiments.  A uniform binary tree
    with the leaf level inlined is driven fault-free over a
    (processors x tasks) grid up to 1024 x ~1M under static placement,
    with the scale machinery on: arena task storage and a non-retaining
    journal ([Config.journal_retain = false]).  Reports makespan, engine
    events per task, and — in the full run only, to keep the quick report
    deterministic across [--jobs] — CPU seconds, events/s and peak heap
    words sampled at every major-GC slice. *)

type probe = { cpu_s : float; peak_heap_words : int; allocated_words : int }

val probe : (unit -> 'a) -> 'a * probe
(** [probe f] runs [f] after a [Gc.compact] and measures it: CPU seconds,
    peak heap words sampled at every major-GC slice (an upper bound on
    peak live words) and words allocated. *)

type point = {
  procs : int;
  depth : int;
  tasks : int;  (** distributed task instances: root + every remote spawn *)
  makespan : int;
  events : int;
  residual : int;  (** arena-resident tasks after quiescence (must be 0) *)
  correct : bool;  (** the answer is [grain * 2^depth] *)
  cost : probe;
}

val grid : quick:bool -> (int * int) list
(** The (processors, tree depth) rows of the sweep. *)

val run_point : procs:int -> depth:int -> point
(** One fault-free row, under {!probe}, with the recovery oracle asserted. *)

val run : ?quick:bool -> unit -> Report.t
