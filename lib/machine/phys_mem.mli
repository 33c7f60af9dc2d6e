(** Simulated physical (machine) memory.

    A flat byte array divided into 4 KiB frames.  On a hypervisor host
    this is the machine memory that the VMM's frame allocator hands out to
    guests; on a native machine it is simply RAM.  Addresses are byte
    physical addresses starting at zero. *)

type t

val create : frames:int -> t
(** [create ~frames] allocates [frames] zeroed 4 KiB frames.

    @raise Invalid_argument if [frames <= 0]. *)

val frames : t -> int
val size_bytes : t -> int

val in_range : t -> pa:int64 -> bytes:int -> bool
(** [in_range t ~pa ~bytes] — the access lies entirely inside RAM. *)

val read : t -> int64 -> Velum_isa.Instr.width -> int64
(** [read t pa w] reads little-endian, zero-extended.

    @raise Invalid_argument if out of range. *)

val write : t -> int64 -> Velum_isa.Instr.width -> int64 -> unit
(** [write t pa w v] writes the low bytes of [v] little-endian. *)

val load_bytes : t -> pa:int64 -> Bytes.t -> unit
(** [load_bytes t ~pa b] copies [b] into memory at [pa] (used to load
    boot images). *)

val frame_copy : t -> src_ppn:int64 -> dst_ppn:int64 -> unit
(** [frame_copy t ~src_ppn ~dst_ppn] copies one whole frame. *)

val frame_fill : t -> ppn:int64 -> char -> unit
(** [frame_fill t ~ppn c] fills a frame with byte [c]. *)

val frame_read : t -> ppn:int64 -> Bytes.t
(** [frame_read t ~ppn] is a fresh copy of the frame's 4096 bytes. *)

val frame_read_into : t -> ppn:int64 -> Bytes.t -> pos:int -> unit
(** [frame_read_into t ~ppn dst ~pos] copies the frame's 4096 bytes into
    [dst] at [pos] — {!frame_read} without the fresh buffer.

    @raise Invalid_argument if the frame or the destination range is out
    of range. *)

val frame_write : t -> ppn:int64 -> Bytes.t -> unit
(** [frame_write t ~ppn b] overwrites the frame with [b] (must be exactly
    4096 bytes). *)

val frame_hash : t -> ppn:int64 -> int64
(** [frame_hash t ~ppn] is the FNV-1a digest of the frame contents; used
    by content-based page sharing. *)

val frame_is_zero : t -> ppn:int64 -> bool
(** [frame_is_zero t ~ppn] — every byte of the frame is zero (zero-page
    detection for migration compression). *)

val frame_equal : t -> int64 -> int64 -> bool
(** [frame_equal t a b] — the two frames hold the same bytes. *)

val blit_between : src:t -> src_ppn:int64 -> dst:t -> dst_ppn:int64 -> unit
(** [blit_between ~src ~src_ppn ~dst ~dst_ppn] copies a frame across two
    memories (live migration between hosts). *)

(** {1 Write listeners}

    Every mutation — CPU stores, image loads, frame copies/fills,
    swap-ins, migration blits — reports the frames it touched to the
    registered listeners, {e after} the bytes changed.  This is the
    coherence backbone of the decoded-block translation cache: a
    listener invalidates cached blocks overlapping any byte range whose
    contents changed, which uniformly covers self-modifying code, DMA,
    COW copies, hypervisor swap-in and restore paths.  With no listeners
    registered the notification costs one list match on the store fast
    path. *)

val add_write_listener : t -> (ppn:int64 -> lo:int -> hi:int -> unit) -> int
(** Returns a handle for {!remove_write_listener}.  The listener runs
    synchronously on every write, once per touched frame, with the
    written byte subrange [\[lo, hi)] of that frame (whole-frame
    operations report [0, page_size)].  The range lets callers that
    cache derived views of code skip invalidation when a write lands in
    a disjoint part of the frame — e.g. a stack or data area sharing a
    page with code.  The listener must be cheap and must not write
    memory itself. *)

val remove_write_listener : t -> int -> unit
