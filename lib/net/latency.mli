(** Message latency model: [20 + per_hop * hops] simulation ticks, a
    switch-traversal dominated model with no jitter. *)

val per_hop : int
(** 10 ticks. *)

val delay : hops:int -> int
(** @raise Invalid_argument on a negative hop count. *)
