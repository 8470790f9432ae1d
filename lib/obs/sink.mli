(** Pluggable consumers for high-volume event streams.

    A ['a t] is anywhere a producer can push values of type ['a]: a
    line-oriented file stream (JSONL — million-event runs go to disk
    instead of being held in memory), a tee duplicating into two sinks,
    a deterministic 1-in-N sampler, or a plain callback.
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
    sink, values a {!sample} wrapper skipped.  Nothing is ever lost
    without moving this count. *)

val of_fun : ?flush:(unit -> unit) -> ?close:(unit -> unit) -> ('a -> unit) -> 'a t

val tee : 'a t -> 'a t -> 'a t
(** [tee a b] pushes every value to [a] then [b]; flush/close reach both. *)

val sample : every:int -> 'a t -> 'a t
(** [sample ~every inner] forwards the 1st, [every+1]-th, [2*every+1]-th …
    value to [inner] and counts the rest in its own {!dropped} tally —
    deterministic rate sampling for high-volume streams (an [every] of 1
    forwards everything).  Flush/close reach [inner].
    @raise Invalid_argument if [every <= 0]. *)

val file : render:('a -> string) -> string -> 'a t
(** Opens (truncates) [path] and writes one [render]ed line per value (a
    newline is appended); {!close} closes the file descriptor.
    @raise Sys_error if the file cannot be created. *)
