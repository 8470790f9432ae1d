(** Level stamps (§3.1).

    The root task carries the empty stamp; a task's k-th spawned child
    carries its parent's stamp with digit [k] appended.  Stamps therefore
    encode the program's call-tree structure: [a] is a (proper) ancestor of
    [b] iff [a] is a proper prefix of [b].  Uniqueness is guaranteed by the
    program structure — no clocks, no coordination — and stamping is fully
    asynchronous, exactly as the paper requires.

    "Digit" is generic (any non-negative int), matching the paper's remark
    that the term is not tied to a radix. *)

type t

val root : t

val child : t -> int -> t
(** [child s k] appends digit [k].
    @raise Invalid_argument if [k < 0]. *)

val parent : t -> t option
(** [None] for the root stamp. *)

val depth : t -> int
(** Root has depth 0.  O(1). *)

val digit : t -> int -> int
(** [digit s i] is the i-th digit from the root, [0 <= i < depth s],
    read without materialising a digit list.
    @raise Invalid_argument out of range. *)

val digits : t -> int list
(** Every digit, root first.  Allocates a list; index a table with {!Map}
    and read a single digit with {!digit} instead. *)

val of_digits : int list -> t
(** @raise Invalid_argument on a negative digit. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic; ancestors sort before descendants. *)

val is_ancestor : t -> t -> bool
(** [is_ancestor a b]: [a] is a *proper* ancestor of [b]. *)

val is_descendant : t -> t -> bool
(** [is_descendant a b]: [a] is a proper descendant of [b]. *)

module Map : Stdlib.Map.S with type key = t
(** Maps keyed by the stamp itself, ordered by {!compare}.  Never hashes,
    so stamps that share a long prefix cannot collide — the key to use
    wherever a stamp indexes a table. *)

val related : t -> t -> bool
(** Same genealogical line: equal, ancestor or descendant. *)

val common_ancestor : t -> t -> t
(** Longest common prefix. *)

val max_digit : t -> int option
(** Largest digit anywhere in the stamp; [None] for the root.  Used by the
    static analyser's gauntlet: every observed digit must lie strictly
    below the spawning function's static fan-out bound (the digit is the
    per-activation spawn counter, so bound soundness shows here). *)

val to_string : t -> string
(** Root prints as "ε", others as dotted digits, e.g. "0.2.1". *)

val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit

val hash : t -> int
(** Structural hash, computed once per stamp and cached (amortised O(1)).
    The value is identical to [Hashtbl.hash (digits s)] — placement keys
    are derived from it, so it is part of the determinism contract. *)
