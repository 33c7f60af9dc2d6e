(** Word-at-a-time equality over byte ranges.

    The one comparison primitive behind the checkpoint store's
    shared-chunk verify and last-image compare and behind the machine
    memory's frame comparisons: eight bytes per step, then a byte tail,
    stopping at the first difference. *)

val equal : Bytes.t -> int -> Bytes.t -> int -> int -> bool
(** [equal a apos b bpos len] — the [len] bytes of [a] from [apos] equal
    the [len] bytes of [b] from [bpos].  [len = 0] is [true].

    @raise Invalid_argument if either range is out of bounds. *)

val is_zero : Bytes.t -> int -> int -> bool
(** [is_zero b pos len] — every byte of [b] in [\[pos, pos+len)] is zero.

    @raise Invalid_argument if the range is out of bounds. *)
