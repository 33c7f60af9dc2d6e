(** VM snapshots: full serialization and copy-on-write live snapshots.

    A {e full} snapshot serializes vCPU state and every present page to a
    byte buffer that can be restored on any host (portable, sized ~ guest
    memory).  A {e live} snapshot instead bumps refcounts and marks the
    VM's frames copy-on-write — O(pages) metadata, O(1) data — the VM
    keeps running and pays a COW break per page it subsequently writes;
    restoring clones a VM from the shared frames. *)

type full = Bytes.t

val capture : Vm.t -> full
(** Serialize the VM (vCPU state, present pages, balloon/absent layout,
    console).  The VM should be quiesced (not running) for a consistent
    image.  The image is sized up front and built in one allocation,
    each data page copied straight from host memory; swapped-out pages
    are swapped back in, in guest-frame order, and a data page with no
    backing frame is encoded as zeros. *)

val restore : Hypervisor.t -> full -> Vm.t
(** Materialize a VM from a full snapshot on the given hypervisor
    (scheduler-registered, same run states).

    @raise Failure on a corrupt image or when the host lacks frames.  A
    rejected image leaves no trace: every frame the partial restore
    allocated is reclaimed and no half-built VM stays registered. *)

val size_bytes : full -> int

type live

val capture_live : Vm.t -> live
(** Mark every present frame copy-on-write and take a reference; the VM
    continues running. *)

val restore_live : Hypervisor.t -> live -> Vm.t
(** Clone a VM sharing the snapshot's frames (all copy-on-write).  The
    clone and the original diverge page by page as either writes.  Must
    run on the same host as the snapshot's frames. *)

val release_live : live -> unit
(** Drop the snapshot's frame references (frames whose last reference
    this was are freed).  Restored clones keep their own references. *)

val live_pages : live -> int
