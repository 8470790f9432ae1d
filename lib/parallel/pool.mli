(** Per-batch domain fan-out for embarrassingly parallel sweeps.

    A pool is a width and a budget of [jobs - 1] helper domains.  Each
    {!map} batch claims items from one shared atomic index: the caller
    works through it, helped by up to [min (n - 1) (jobs - 1)] domains that
    are spawned for this batch, taken from the budget, and joined before
    [map] returns.  A nested map (an item fanning out an inner sweep) gets
    helpers only while some are free and otherwise runs on its own caller,
    so one pool never runs more than [jobs] domains and never deadlocks.
    [jobs = 1] degenerates to [List.map] on the caller — the property the
    experiments driver relies on for its [--jobs 1] determinism oracle.

    Results come back in submission order regardless of which domain ran
    what, and the exception of the lowest-index failing item is re-raised
    in the caller with its original backtrace. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] makes a pool of [jobs] execution slots (the caller
    plus [jobs - 1] helpers).  [jobs] defaults to
    [Domain.recommended_domain_count ()] and is clamped to at least 1.
    No domain is started until a batch needs one.

    Each helper sizes its minor heap to [2^20] words (8 MiB on 64-bit):
    the stock 256k-word nursery forces allocation-heavy simulation tasks
    into constant minor collections, each a stop-the-world across domains.
    The caller's GC parameters are never touched.

    Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int
(** Number of execution slots (helper domains + the caller). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs], possibly on
    different domains, and returns the results in the order of [xs].
    If any application raises, the exception of the lowest-index failing
    element is re-raised after the whole batch has settled (no item is
    abandoned mid-flight). *)

val run : t -> (unit -> 'a) list -> 'a list
(** [run pool thunks] is [map pool (fun f -> f ()) thunks]. *)

(** {1 Shared default pool}

    The experiments harness fans out through one process-wide pool so a
    single [--jobs] flag governs every sweep. *)

val set_default_jobs : int -> unit
(** Make the default pool [jobs] wide.  A batch already running keeps the
    width it started with.  Raises [Invalid_argument] if [jobs < 1]. *)

val default : unit -> t
(** The shared pool, [Domain.recommended_domain_count ()] wide until
    {!set_default_jobs} says otherwise. *)
