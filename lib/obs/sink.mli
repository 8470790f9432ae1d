(** Pluggable consumers for high-volume event streams.

    A ['a t] is anywhere a producer can push values of type ['a]: a
    line-oriented file stream (JSONL — million-event runs go to disk
    instead of being held in memory), a seeded reservoir, a tee
    duplicating into two sinks, a plain callback, or nothing at all.
    [Recflow_machine.Journal.attach_sink] streams journal entries into
    one; the CLI wires a JSONL file sink behind [--trace-jsonl]. *)

type 'a t

val emit : 'a t -> 'a -> unit

val flush : 'a t -> unit

val close : 'a t -> unit
(** Flush and release any resource (idempotent).  Emitting into a closed
    sink discards the value but counts it in {!dropped}. *)

val emitted : 'a t -> int
(** Values accepted by this sink so far. *)

val dropped : 'a t -> int
(** Values this sink decided not to keep or forward: emits into a closed
    sink, values a {!sample} wrapper skipped, reservoir rejections.  Nothing is ever lost without moving this count. *)

val null : unit -> 'a t
(** Discards everything (still counts {!emitted}). *)

val of_fun : ?flush:(unit -> unit) -> ?close:(unit -> unit) -> ('a -> unit) -> 'a t

val tee : 'a t -> 'a t -> 'a t
(** [tee a b] pushes every value to [a] then [b]; flush/close reach both. *)

val sample : every:int -> 'a t -> 'a t
(** [sample ~every inner] forwards the 1st, [every+1]-th, [2*every+1]-th …
    value to [inner] and counts the rest in its own {!dropped} tally —
    deterministic rate sampling for high-volume streams (an [every] of 1
    forwards everything).  Flush/close reach [inner].
    @raise Invalid_argument if [every <= 0]. *)

val channel : render:('a -> string) -> out_channel -> 'a t
(** One [render]ed line per value (a newline is appended).  The channel is
    not closed by {!close} — the caller owns it. *)

val file : render:('a -> string) -> string -> 'a t
(** Like {!channel} but opens (truncates) [path] and owns it: {!close}
    closes the file descriptor.
    @raise Sys_error if the file cannot be created. *)

(** Seeded reservoir sampling (Algorithm R): retains a uniform random
    sample of bounded size from a stream of unknown length, using its own
    splitmix64 state so the choice is deterministic per seed and
    independent of any other randomness in the process. *)
module Reservoir : sig
  type 'a res

  val create : capacity:int -> seed:int -> 'a res
  (** @raise Invalid_argument if [capacity <= 0]. *)

  val push : 'a res -> 'a -> bool
  (** [true] when the value was retained (possibly displacing an earlier
      one), [false] when it was rejected.  After [n] pushes every value has
      had the same [capacity/n] retention probability. *)

  val to_list : 'a res -> 'a list
  (** Retained sample, in slot order (not push order). *)

  val total : 'a res -> int

  val length : 'a res -> int
  (** Currently retained (at most [capacity]). *)

  val capacity : 'a res -> int

  val sink : 'a res -> 'a t
  (** View the reservoir as a sink; rejected values count in the sink's
      {!dropped}. *)
end
