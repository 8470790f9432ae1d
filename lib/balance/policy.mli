(** Dynamic task placement policies.

    §3.3 of the paper makes load balancing part of the recovery story: with
    *dynamic* allocation (their gradient model, ref [10]) a re-issued task
    is indistinguishable from an original one and needs no linkage fix-up,
    whereas *static* allocation must reassign tasks bound to a dead node and
    patch return addresses.  We provide:

    - [Gradient]: a pressure-surface approximation of the Lin–Keller
      gradient model — a spawn flows toward the live node minimising
      [pressure + weight * hops from origin], i.e. downhill on the demand
      gradient anchored at under-loaded nodes;
    - [Random]: uniform over live nodes;
    - [Round_robin]: cyclic over live nodes;
    - [Static_hash]: placement fixed by a hash of the task's identity —
      the static baseline for the Q7 ablation.  It may nominate a dead
      node; the machine layer then charges a reassignment penalty and
      re-places the task dynamically.

    The policy sees a [view]: the router (alive set + distances) and a
    pressure function (ready-queue length per node).  The gradient model in
    the real machine would propagate pressure hop-by-hop; sampling the
    current queue lengths is the standard simulation shortcut and is noted
    in DESIGN.md. *)

type spec =
  | Gradient of { weight : int }  (** [weight]: hops-to-pressure exchange rate, >= 0 *)
  | Random
  | Round_robin
  | Static_hash
  | Neighborhood of { radius : int }
      (** least-pressure node within [radius] hops of the origin (self
          included) — models Grit-style schemes where tasks may only move
          to immediate neighbours; falls back to the nearest live node
          when the whole neighbourhood is dead *)
  | Gradient_distributed of { threshold : int }
      (** the gradient model implemented distributedly, as in Lin & Keller
          [10]: nodes periodically exchange gradient values with their
          topology neighbours (every 100 ticks) and a spawn stays
          local while the run queue is at most [threshold], otherwise it
          flows to the neighbour with the lowest gradient value.  The
          placement decision is made inside {!Recflow_machine.Node} from
          node-local state only; {!choose} (used for the root dispatch)
          falls back to least-pressure-among-all. *)

val spec_to_string : spec -> string

val spec_of_string : string -> (spec, string) result
(** "gradient", "gradient:W", "random", "round-robin", "static",
    "neighborhood", "neighborhood:R", "gradient-distributed",
    "gradient-distributed:T". *)

val suggest_gradient_weight : fanout:int -> int
(** A [Gradient] weight seeded from a program's static fan-out bound (see
    {!Recflow_analysis.Shape}): wide spawners pay more per hop so demand
    spreads in waves, narrow ones pay less so work still leaves the
    origin.  Pure arithmetic — no dependency on the analyser. *)

val suggest_ckpt_admission :
  work_per_activation:int ->
  fanout:int ->
  depth_bound:int option ->
  loss_rate:float ->
  ckpt_cost:int ->
  int option
(** The adaptive checkpoint admission cutoff for
    [Config.ckpt_mode = Adaptive]: the deepest stamp depth at which a
    checkpoint's expected insurance value — [loss_rate] times the static
    work bound of the subtree below it ([work_per_activation] per task,
    fan-out [fanout], depth capped by [depth_bound]) — still covers its
    certain [ckpt_cost] on the spawn critical path.  [None] means "admit
    everything" (no static depth bound to reason from, or recording is
    free); [Some d] is always >= 1, so the root's children stay covered.
    Pure arithmetic — the caller feeds it numbers from
    {!Recflow_analysis.Cost.entry_bounds}. *)

type view = { router : Recflow_net.Router.t; pressure : int -> int }

type t

val create : ?seed:int -> spec -> t

val spec : t -> spec

val choose : t -> view -> origin:int -> key:int -> int
(** Pick a destination node for a task spawned at [origin].  [key] is a
    stable identity hash of the task (used only by [Static_hash]).  The
    returned node may be dead only under [Static_hash]; all dynamic
    policies return a live node.
    @raise Invalid_argument if no node is alive. *)

val is_static : t -> bool
