(** Crash-consistent, content-addressed incremental checkpoint store,
    layered on {!Velum_devices.Blockdev}.

    Snapshot images ({!Snapshot.full} bytes) are split into 4 KiB chunks
    keyed by their FNV-1a content hash.  A chunk is written once and
    shared by every later generation — and every other VM stream on the
    same store — that contains the same bytes, so a cadenced checkpoint
    costs its churn, not its footprint.  On-device layout:

    {v
    sector 0   superblock slot 0   (72 bytes used)
    sector 1   superblock slot 1
    sector 2 .. 2+S-1        log space A
    sector 2+S .. 2+2S-1     log space B
    v}

    One space is {e active}: commits append to it — new chunk records
    (magic, content hash, length, payload), then a {e manifest} (the
    ordered chunk list that reassembles one stream's image, with a
    whole-image checksum), then a {e catalog} (the stream directory),
    then a {e refcount table}, and finally — the sole commit point — a
    superblock (sequence, active space, log head, catalog/reftable
    locations, self-checksum) into slot [seq mod 2].  Until the
    superblock lands intact, both slots still describe older
    generations, and because the log is append-only no byte either of
    them references is ever overwritten by a commit.

    When the active space fills, {!gc} compacts every chunk reachable
    from the newest catalog into the {e other} space and flips the
    superblock — the pre-GC space is never written, so a power cut at
    any byte offset of the compaction stream leaves the old state
    ruling.  Refcounts (references from the manifests of the two
    recoverable catalogs) decide what is live; {!mount} rebuilds them
    from the manifests and cross-checks the stored table, so a lost or
    rotted refcount update (site [store.ref]) is detected and repaired
    rather than trusted.

    The power-failure model cuts a commit's or compaction's byte stream
    at an arbitrary offset — injected by the fault plan (sites
    [store.torn] / [store.gc], offset drawn from the plan's RNG) or at a
    caller-chosen offset ([?crash_at], used by the CI crash matrix).
    {!recover} validates superblock, catalog, manifest, every chunk
    record, and the whole-image checksum before returning the newest
    {e complete} generation: a crash at any offset yields either the
    previous or the new snapshot, never a torn hybrid and never a
    manifest pointing at reclaimed bytes.  Latent rot (site
    [store.csum]) flips a committed bit so the next scan must fall back
    a generation. *)

type t

val create : ?sectors:int -> ?faults:Velum_util.Fault.t -> unit -> t
(** Fresh store on a private blank {!Velum_devices.Blockdev} (default
    8192 sectors = 4 MiB; sequence 0, nothing recoverable). *)

val mount : ?faults:Velum_util.Fault.t -> Velum_devices.Blockdev.t -> t
(** Attach to an existing device — the reboot path.  Scans both
    superblock slots for the newest complete generation, rebuilds the
    chunk index and refcounts from the live manifests, and cross-checks
    the stored refcount table (mismatch: observed [store.ref], counted
    in {!ref_rebuilds}).  In-memory state left by a torn commit is
    discarded, exactly as a power cycle would. *)

val clone : t -> t
(** A fresh handle mounted on a byte copy of the device — the crash
    sweeps use this to restart from a prepared state without replaying
    its commits. *)

val device : t -> Velum_devices.Blockdev.t
(** The backing device (so a store can be remounted or copied). *)

val drop_images : t -> unit
(** Release the one image per stream this handle retains (see {!commit});
    each stream's next commit then hashes every chunk, as after
    {!mount}.  Device bytes and commit outcomes are unaffected. *)

val set_faults : t -> Velum_util.Fault.t -> unit

val sectors_for : image_bytes:int -> int
(** Device size (sectors) whose spaces comfortably hold one stream of
    [image_bytes] images — two full generations plus
    manifest/catalog/reftable overhead, so steady-state commits trigger
    GC rather than overflow. *)

val fleet_sectors_for : streams:int -> image_bytes:int -> int
(** Like {!sectors_for} but sized for [streams] independent VM streams
    sharing one store — the cluster control plane's shared fleet CAS. *)

type outcome =
  | Committed of {
      gen : int;  (** the stream's new generation number *)
      bytes : int;  (** bytes actually written: the churn, not the image *)
      chunks_new : int;  (** chunks appended by this commit *)
      chunks_shared : int;  (** chunks deduplicated against the CAS *)
    }
  | Torn of int
      (** power failed after this many bytes of the write stream; the
          device holds a prefix, the previous generation still rules *)

val commit : ?crash_at:int -> ?id:string -> t -> Bytes.t -> outcome
(** [commit t image] durably stores [image] as stream [id]'s (default
    [""]) next generation.  Chunks already in the store — from any
    stream or generation — are shared after a byte-compare verify, so
    the write stream contains only changed chunks plus metadata.
    [crash_at] deterministically cuts the stream after that many bytes
    (clamped to the stream length; the commit is then reported [Torn]
    without consulting the fault plan) — the CI sweep drives every
    offset of a delta commit through this.  Without [crash_at], the
    fault plan's [store.torn] site may cut the stream, [store.csum] may
    rot a committed record, and [store.ref] may rot the refcount table.
    If the active space is full, a GC compaction runs first; a power cut
    during it (site [store.gc]) reports the commit [Torn] with nothing
    of the new generation on the device.

    Cost: the handle retains a private copy of the image each stream
    last committed through it ({!mount}, {!clone} and {!drop_images}
    start without one; a [Torn] commit leaves it as it was).  A chunk
    byte-equal to the same chunk of that image takes its hash from the
    stream's manifest, so only chunks changed since this handle's last
    commit of the stream are hashed.  On top come one in-place compare
    pass — every chunk against the retained image and every shared
    chunk against its stored copy — and one whole-image checksum.  The
    retained copy is patched in place on the next commit, or replaced
    when the image length changes: one image's worth of memory per
    stream.

    @raise Invalid_argument if the image cannot fit a space even after
    GC. *)

val commit_bytes : ?id:string -> t -> Bytes.t -> int
(** Total bytes [commit] would write for this image right now (new chunk
    records, manifest, catalog, reftable, superblock) — the exclusive
    upper bound for interesting [crash_at] offsets. *)

val commit_cycles : bytes:int -> int64
(** Cycles a commit of [bytes] occupies the storage path: two seeks (data
    stream, superblock flip) plus the per-byte streaming cost, matching
    the {!Velum_devices.Blockdev} latency model.  The HA supervisor
    charges this on the delta's {e actual} byte count as checkpoint
    pause time. *)

type gc_outcome =
  | Gc_committed of {
      bytes : int;  (** bytes of the compaction stream *)
      live_chunks : int;  (** distinct chunk records copied forward *)
      reclaimed : int;  (** log bytes freed by the flip *)
    }
  | Gc_torn of int
      (** power failed after this many bytes of the compaction stream;
          the pre-GC space was never written, so the old state rules *)

val gc : ?crash_at:int -> t -> gc_outcome
(** Compact every chunk reachable from the newest catalog into the
    inactive space and flip the superblock.  [crash_at] cuts the
    compaction stream deterministically (the CI sweep drives every
    offset); without it the fault plan's [store.gc] site may cut it. *)

val gc_bytes : t -> int
(** Bytes {!gc} would write right now — the exclusive upper bound for
    interesting [crash_at] offsets of a compaction. *)

val recover : ?id:string -> t -> (Bytes.t * int) option
(** Scan the device and return stream [id]'s newest complete image with
    its generation; [None] if no generation of that stream ever
    committed intact.  Re-validates everything from superblock to
    whole-image checksum.  Structural breakage counts as observed
    [store.torn]; checksum mismatches under a valid structure count as
    observed [store.csum]. *)

val generation : t -> int
(** Newest complete global commit sequence (0 = empty).  Superblock
    flips — commits and GC runs alike — advance it; for a single-stream
    store that never GCs it coincides with the stream generation. *)

val stream_generation : ?id:string -> t -> int
(** Newest committed generation of stream [id] (0 = none). *)

val commits : t -> int
(** Successful commits through this handle. *)

val torn_commits : t -> int
(** Commits cut by a power failure through this handle. *)

val bytes_written : t -> int
(** Total bytes this handle pushed at the device (torn prefixes and GC
    streams included). *)

val logical_bytes : t -> int
(** Total image bytes successfully committed — what a full-image store
    would have written.  [logical_bytes / bytes_written] is the dedup
    ratio. *)

val chunks_live : t -> int
(** Distinct chunks currently referenced by the live manifests. *)

val gc_runs : t -> int
(** Completed GC compactions through this handle. *)

val torn_gc : t -> int
(** GC compactions cut by a power failure through this handle. *)

val ref_rebuilds : t -> int
(** Times {!mount} found the stored refcount table missing, rotted, or
    under-counting and rebuilt it from the live manifests. *)
