(* High availability: the durable snapshot store is crash-consistent at
   every power-failure offset (qcheck sweep) and commits reusing the last
   image's hashes match full-hash commits byte for byte, snapshot capture
   matches the reference encoder and round-trips, a rejected snapshot
   restore leaves no trace, failover is idempotent, the watchdog policies
   fire exactly as specified, the HA supervisor restarts wedged VMs from
   the last good checkpoint with zero manual recovery calls and retries a
   torn checkpoint, and missed heartbeats drive automatic
   generation-fenced failover. *)

open Velum_isa
open Velum_machine
open Velum_devices
open Velum_vmm
open Velum_guests
open Asm

module Fault = Velum_util.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let make_hyp ?(frames = 2048) () = Hypervisor.create ~host:(Host.create ~frames ()) ()

let unikernel hyp ?(mem_frames = 16) name prog =
  let vm = Hypervisor.create_vm hyp ~name ~mem_frames ~entry:0L () in
  Vm.load_image vm (Asm.assemble ~origin:0L prog);
  vm

let vm_instret vm =
  Array.fold_left
    (fun acc (v : Vcpu.t) -> Int64.add acc v.Vcpu.state.Cpu.instret)
    0L vm.Vm.vcpus

let store_for ?faults ~image_bytes () =
  Store.create ~sectors:(Store.sectors_for ~image_bytes) ?faults ()

(* ---------------- store: crash consistency ---------------- *)

(* Commit one generation intact, cut the next commit at an arbitrary
   byte offset, power-cycle (remount the raw device) and recover: the
   result must be byte-identical to the previous image — the commit
   point is the last superblock byte, so no cut offset may ever yield
   the new image, a hybrid, or nothing. *)
let store_crash_sweep_prop =
  QCheck2.Test.make ~count:100
    ~name:"power failure at any commit offset recovers the previous image"
    QCheck2.Gen.(
      triple
        (string_size ~gen:char (int_range 1 30_000))
        (string_size ~gen:char (int_range 1 30_000))
        nat)
    (fun (s1, s2, off_seed) ->
      let img1 = Bytes.of_string s1 and img2 = Bytes.of_string s2 in
      let image_bytes = max (Bytes.length img1) (Bytes.length img2) in
      let store = store_for ~image_bytes () in
      (match Store.commit store img1 with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "baseline commit failed");
      let total = Store.commit_bytes store img2 in
      let off = off_seed mod total in
      (match Store.commit ~crash_at:off store img2 with
      | Store.Torn cut -> if cut <> off then failwith "cut at wrong offset"
      | Store.Committed _ -> failwith "crash_at must tear the commit");
      (* power cycle: all in-memory state is lost *)
      let store = Store.mount (Store.device store) in
      match Store.recover store with
      | Some (img, 1) -> Bytes.equal img img1
      | _ -> false)

let test_store_generations () =
  let store = store_for ~image_bytes:10_000 () in
  checkb "empty store recovers nothing" true (Store.recover store = None);
  let imgs = List.init 5 (fun i -> Bytes.make (3_000 + (i * 811)) (Char.chr (65 + i))) in
  List.iteri
    (fun i img ->
      match Store.commit store img with
      | Store.Committed { gen; _ } -> checki "generation increments" (i + 1) gen
      | Store.Torn _ -> Alcotest.fail "unexpected torn commit")
    imgs;
  (match Store.recover store with
  | Some (img, 5) -> checkb "newest image wins" true (Bytes.equal img (List.nth imgs 4))
  | _ -> Alcotest.fail "newest generation must recover");
  let store = Store.mount (Store.device store) in
  checki "generation survives remount" 5 (Store.generation store)

let test_store_torn_site () =
  let f = Fault.create ~seed:9L () in
  (* [now] for store sites is the commit ordinal: cut the second commit *)
  Fault.add_window f Fault.Store_torn ~lo:1L ~hi:1L;
  let store = store_for ~faults:f ~image_bytes:8_000 () in
  let img1 = Bytes.make 8_000 'x' and img2 = Bytes.make 8_000 'y' in
  (match Store.commit store img1 with
  | Store.Committed { gen = 1; _ } -> ()
  | _ -> Alcotest.fail "first commit must land");
  (match Store.commit store img2 with
  | Store.Torn _ -> ()
  | Store.Committed _ -> Alcotest.fail "the window must cut the second commit");
  checki "torn commit counted" 1 (Store.torn_commits store);
  checki "injected counted" 1 (Fault.injected f Fault.Store_torn);
  let store = Store.mount ~faults:f (Store.device store) in
  (match Store.recover store with
  | Some (img, 1) -> checkb "previous generation rules" true (Bytes.equal img img1)
  | _ -> Alcotest.fail "must recover generation 1")

let test_store_csum_rot () =
  let f = Fault.create ~seed:3L () in
  Fault.add_window f Fault.Store_csum ~lo:1L ~hi:1L;
  let store = store_for ~faults:f ~image_bytes:8_000 () in
  let img1 = Bytes.make 8_000 'x' and img2 = Bytes.make 8_000 'y' in
  (match Store.commit store img1 with
  | Store.Committed { gen = 1; _ } -> ()
  | _ -> Alcotest.fail "first commit must land");
  (match Store.commit store img2 with
  | Store.Committed { gen = 2; _ } -> ()
  | _ -> Alcotest.fail "rot happens after the commit lands");
  (match Store.recover store with
  | Some (img, 1) -> checkb "rot falls back a generation" true (Bytes.equal img img1)
  | _ -> Alcotest.fail "generation 1 must still recover");
  checkb "corruption observed by the scan" true
    (Fault.observed f Fault.Store_csum + Fault.observed f Fault.Store_torn >= 1)

let test_new_sites_parse () =
  match
    Fault.parse
      "seed=5,store.torn=0.25,store.csum=0.1,store.gc=0.5,store.ref@2-3,hb.loss@100-200"
  with
  | Error e -> Alcotest.fail e
  | Ok f ->
      checkb "torn prob" true (Fault.prob f Fault.Store_torn = 0.25);
      checkb "csum prob" true (Fault.prob f Fault.Store_csum = 0.1);
      checkb "gc prob" true (Fault.prob f Fault.Store_gc = 0.5);
      checkb "ref window" true (Fault.fire f Fault.Store_ref ~now:2L);
      checkb "ref outside window" false (Fault.fire f Fault.Store_ref ~now:4L);
      checkb "hb window" true (Fault.fire f Fault.Hb_loss ~now:150L);
      checkb "hb outside window" false (Fault.fire f Fault.Hb_loss ~now:250L)

(* ---------------- store: content-addressed deltas and GC ---------------- *)

(* Deterministic patterned pages: content is a pure function of the
   tag, so shared tags dedup across streams and generations. *)
let fill_page img i tag =
  Bytes.set_int64_le img (i * 4096) (Int64.of_int tag);
  for j = 8 to 4095 do
    Bytes.unsafe_set img ((i * 4096) + j)
      (Char.chr (((tag + (j * 7)) land 0x7f) + 1))
  done

(* Multi-stream fleet store under GC: cut a compaction at any byte
   offset (or let it complete), power-cycle, and every stream's newest
   generation must still restore byte-identically — GC must never
   reclaim a chunk any live manifest can reach. *)
let store_gc_live_prop =
  QCheck2.Test.make ~count:60
    ~name:"GC at any cut offset never loses a live generation"
    QCheck2.Gen.(triple (int_range 2 4) (int_range 1 3) nat)
    (fun (streams, gens, off_seed) ->
      let pages = 6 in
      let image_bytes = pages * 4096 in
      let image s g =
        let b = Bytes.create image_bytes in
        for i = 0 to pages - 1 do
          (* low pages shared by every stream of the same generation,
             high pages private to the stream *)
          let tag =
            if i < 3 then (g * 1009) + i
            else (s * 65599) + (g * 1009) + i
          in
          fill_page b i tag
        done;
        b
      in
      let store =
        Store.create
          ~sectors:(Store.fleet_sectors_for ~streams ~image_bytes)
          ()
      in
      let last = Array.make streams Bytes.empty in
      for g = 1 to gens do
        for s = 0 to streams - 1 do
          let img = image s g in
          (match Store.commit ~id:(string_of_int s) store img with
          | Store.Committed _ -> ()
          | Store.Torn _ -> failwith "commit torn without a fault plan");
          last.(s) <- img
        done
      done;
      let total = Store.gc_bytes store in
      let cut = off_seed mod (total + 1) in
      (if cut >= total then (
         match Store.gc store with
         | Store.Gc_committed _ -> ()
         | Store.Gc_torn _ -> failwith "gc torn without a fault plan")
       else
         match Store.gc ~crash_at:cut store with
         | Store.Gc_torn c when c = cut -> ()
         | _ -> failwith "crash_at must tear the compaction");
      (* power cycle: all in-memory state is lost *)
      let store = Store.mount (Store.device store) in
      let ok = ref true in
      for s = 0 to streams - 1 do
        match Store.recover ~id:(string_of_int s) store with
        | Some (img, g) ->
            if g <> gens || not (Bytes.equal img last.(s)) then ok := false
        | None -> ok := false
      done;
      !ok)

(* A chain of delta commits must reassemble the exact same bytes as a
   fresh store holding only the final image — chunk sharing is a
   storage optimisation, never a semantic one.  Half the runs remount
   the device mid-chain so the rebuilt index is on the committing
   path too. *)
let store_delta_oracle_prop =
  QCheck2.Test.make ~count:60
    ~name:"delta-chain recover equals single-commit recover"
    QCheck2.Gen.(
      quad
        (string_size ~gen:char (int_range 4096 20_000))
        (list_size (int_range 1 6)
           (list_size (int_range 1 8) (pair nat (int_range 1 255))))
        bool bool)
    (fun (base, steps, remount, grow) ->
      let image_bytes = String.length base + 4096 in
      let store = store_for ~image_bytes () in
      let img = ref (Bytes.of_string base) in
      (match Store.commit store !img with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "baseline commit failed");
      let store = ref store in
      List.iteri
        (fun i muts ->
          let next =
            if grow && i = 0 then (
              (* a generation that changes length exercises the tail chunk *)
              let b = Bytes.create (Bytes.length !img + 811) in
              Bytes.blit !img 0 b 0 (Bytes.length !img);
              b)
            else Bytes.copy !img
          in
          List.iter
            (fun (pos, v) ->
              Bytes.set next
                (pos mod Bytes.length next)
                (Char.chr v))
            muts;
          (match Store.commit !store next with
          | Store.Committed _ -> ()
          | Store.Torn _ -> failwith "chain commit torn without a fault plan");
          if remount && i mod 2 = 0 then
            store := Store.mount (Store.device !store);
          img := next)
        steps;
      let final = !img in
      let oracle = store_for ~image_bytes:(Bytes.length final) () in
      (match Store.commit oracle final with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "oracle commit failed");
      match
        (Store.recover !store, Store.recover oracle)
      with
      | Some (a, _), Some (b, _) ->
          Bytes.equal a final && Bytes.equal b final && Bytes.equal a b
      | _ -> false)

(* The compare-against-the-last-image commit path must decide exactly
   what hashing every chunk decides.  One long-lived handle keeps each
   stream's last image; the oracle handle, on its own device, drops them
   before every commit and so hashes every chunk.  Both run the same
   commit sequence — several streams derived from shared content,
   chunk-level churn, length changes, GC, probabilistic torn commits and
   rot from identically seeded plans, plus deterministic [crash_at]
   cuts — and must agree on every outcome and on every device byte.
   (A remount per commit is not a faithful oracle: a long-lived handle
   also remembers chunks that only older generations reference, so the
   two would legitimately share differently.)  While no rot has been
   injected, every committed generation must also recover intact, which
   re-hashes each chunk the manifest names: a reused hash must equal
   [Fnv.hash_bytes] of its chunk. *)
let oracle_chunk img pos len tag =
  for j = 0 to len - 1 do
    Bytes.unsafe_set img (pos + j) (Char.chr (((tag * 31) + (j * 7) + (j lsr 9)) land 0xff))
  done

let oracle_image (len, tags) =
  let b = Bytes.create len in
  Array.iteri
    (fun i tag ->
      let pos = i * 4096 in
      if pos < len then oracle_chunk b pos (min 4096 (len - pos)) tag)
    tags;
  b

let device_bytes store =
  let d = Store.device store in
  Blockdev.read_back d ~sector:0 ~count:(Blockdev.sectors d)

let store_last_image_oracle_prop =
  QCheck2.Test.make ~count:150
    ~name:"last-image commits match full-hash commits byte for byte"
    QCheck2.Gen.(
      quad (int_range 2 4)
        (list_size (int_range 8 60)
           (quad nat
              (list_size (int_range 0 4) (pair (int_range 0 8) (int_range 0 400)))
              (opt ~ratio:0.2 (int_range (2 * 4096) ((8 * 4096) + 100)))
              (opt ~ratio:0.15 nat)))
        (pair (int_range 0 1000) (pair bool bool))
        (int_range 0 40))
    (fun (streams, steps, (seed, (torn, rot)), private_tag) ->
      let plan () =
        let f = Fault.create ~seed:(Int64.of_int seed) () in
        if torn then Fault.set_prob f Fault.Store_torn 0.1;
        if rot then Fault.set_prob f Fault.Store_csum 0.1;
        f
      in
      let fa = plan () and fb = plan () in
      (* small enough that the churn forces compactions *)
      let sectors = Store.sectors_for ~image_bytes:(20 * 4096) in
      let live = Store.create ~sectors ~faults:fa () in
      let oracle = Store.create ~sectors ~faults:fb () in
      (* every stream starts from the same content, one private chunk *)
      let state =
        Array.init streams (fun s ->
            let tags = Array.init 9 (fun i -> i) in
            tags.(s) <- private_tag + s;
            ((5 * 4096) + 811, tags))
      in
      List.for_all
        (fun (s, muts, resize, cut) ->
          let s = s mod streams in
          let len, tags = state.(s) in
          let tags = Array.copy tags in
          List.iter (fun (i, tag) -> tags.(i) <- tag) muts;
          let len = Option.value resize ~default:len in
          state.(s) <- (len, tags);
          let img = oracle_image (len, tags) in
          let id = Printf.sprintf "vm-%d" s in
          let crash_at =
            Option.map (fun c -> c mod Store.commit_bytes ~id live img) cut
          in
          Store.drop_images oracle;
          let a = Store.commit ?crash_at ~id live img in
          let b = Store.commit ?crash_at ~id oracle img in
          a = b
          && device_bytes live = device_bytes oracle
          &&
          match a with
          | Store.Committed { gen; _ } when Fault.injected fa Fault.Store_csum = 0 -> (
              match Store.recover ~id live with
              | Some (got, g) -> g = gen && Bytes.equal got img
              | None -> false)
          | _ -> true)
        steps)

let test_store_gc_site () =
  let f = Fault.create ~seed:11L () in
  (* [now] for store sites is the successful-commit ordinal *)
  Fault.add_window f Fault.Store_gc ~lo:2L ~hi:2L;
  let store = store_for ~faults:f ~image_bytes:16_000 () in
  let img1 = Bytes.make 16_000 'x' and img2 = Bytes.make 16_000 'y' in
  (match Store.commit store img1 with
  | Store.Committed { gen = 1; _ } -> ()
  | _ -> Alcotest.fail "first commit must land");
  (match Store.commit store img2 with
  | Store.Committed { gen = 2; _ } -> ()
  | _ -> Alcotest.fail "second commit must land");
  (match Store.gc store with
  | Store.Gc_torn _ -> ()
  | Store.Gc_committed _ -> Alcotest.fail "the window must cut the compaction");
  checki "torn gc counted" 1 (Store.torn_gc store);
  checki "injected counted" 1 (Fault.injected f Fault.Store_gc);
  let store = Store.mount (Store.device store) in
  (match Store.recover store with
  | Some (img, 2) ->
      checkb "newest generation survives the torn compaction" true
        (Bytes.equal img img2)
  | _ -> Alcotest.fail "must recover generation 2")

let test_store_ref_site () =
  let f = Fault.create ~seed:21L () in
  Fault.add_window f Fault.Store_ref ~lo:1L ~hi:1L;
  let store = store_for ~faults:f ~image_bytes:16_000 () in
  let img1 = Bytes.make 16_000 'x' and img2 = Bytes.make 16_000 'y' in
  (match Store.commit store img1 with
  | Store.Committed { gen = 1; _ } -> ()
  | _ -> Alcotest.fail "first commit must land");
  (match Store.commit store img2 with
  | Store.Committed { gen = 2; _ } -> ()
  | _ -> Alcotest.fail "rot happens after the commit lands");
  checki "rot injected" 1 (Fault.injected f Fault.Store_ref);
  (* the reboot path must detect the rotted table and rebuild it from
     the live manifests instead of trusting it *)
  let store = Store.mount ~faults:f (Store.device store) in
  checki "refcount table rebuilt" 1 (Store.ref_rebuilds store);
  checkb "rot observed" true (Fault.observed f Fault.Store_ref >= 1);
  (match Store.recover store with
  | Some (img, 2) -> checkb "newest image intact" true (Bytes.equal img img2)
  | _ -> Alcotest.fail "recovery must be unaffected by refcount rot")

(* ---------------- snapshot: rejected restores leave no trace ---------------- *)

let snap_base_image =
  lazy
    (let setup = Images.plan ~heap_pages:4 ~user:(Workloads.hello ()) () in
     let hyp = make_hyp ~frames:(setup.Images.frames + 512) () in
     let vm =
       Hypervisor.create_vm hyp ~name:"h" ~mem_frames:setup.Images.frames
         ~entry:Images.entry ()
     in
     Images.load_vm vm setup;
     ignore (Hypervisor.run hyp);
     Snapshot.capture vm)

(* Flip one byte anywhere in a valid image.  Whether the restore is then
   rejected or (for flips in benign payload bytes) still succeeds, the
   host must end with exactly the frames and VM registrations it started
   with. *)
let restore_no_leak_prop =
  QCheck2.Test.make ~count:80 ~name:"bit-flipped snapshot restores leak nothing"
    QCheck2.Gen.(pair nat (int_range 0 254))
    (fun (pos_seed, flip) ->
      let image = Bytes.copy (Lazy.force snap_base_image) in
      let pos = pos_seed mod Bytes.length image in
      Bytes.set image pos
        (Char.chr (Char.code (Bytes.get image pos) lxor (1 + flip)));
      let hyp = make_hyp ~frames:4096 () in
      let used0 = Frame_alloc.used_count (Hypervisor.host hyp).Host.alloc in
      let nvms0 = List.length hyp.Hypervisor.vms in
      (match Snapshot.restore hyp image with
      | vm -> Hypervisor.remove_vm hyp vm
      | exception Failure _ -> ());
      Frame_alloc.used_count (Hypervisor.host hyp).Host.alloc = used0
      && List.length hyp.Hypervisor.vms = nvms0)

let test_truncated_restore_rejected () =
  let image = Lazy.force snap_base_image in
  let hyp = make_hyp ~frames:4096 () in
  let used0 = Frame_alloc.used_count (Hypervisor.host hyp).Host.alloc in
  let cut = Bytes.sub image 0 (Bytes.length image / 2) in
  (match Snapshot.restore hyp cut with
  | _ -> Alcotest.fail "truncated image must be rejected"
  | exception Failure _ -> ());
  checki "frames reclaimed" used0
    (Frame_alloc.used_count (Hypervisor.host hyp).Host.alloc);
  checki "no half-built VM registered" 0 (List.length hyp.Hypervisor.vms)

(* ---------------- snapshot: the encoder ---------------- *)

(* The Buffer-based encoder [Snapshot.capture] used before it sized its
   image exactly: the reference the one-allocation encoder must match
   byte for byte, including the order in which it swaps pages in. *)
let reference_capture (vm : Vm.t) =
  let add_i64 buf v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    Buffer.add_bytes buf b
  in
  let add_int buf v = add_i64 buf (Int64.of_int v) in
  let add_str buf s =
    add_int buf (String.length s);
    Buffer.add_string buf s
  in
  let buf = Buffer.create (Vm.mem_frames vm * Arch.page_size / 2) in
  add_i64 buf 0x56454C4D534E5031L;
  add_str buf vm.Vm.name;
  add_int buf (Vm.mem_frames vm);
  add_int buf (Array.length vm.Vm.vcpus);
  add_int buf (match vm.Vm.paging with Vm.Shadow_paging -> 0 | Vm.Nested_paging -> 1);
  add_int buf (if vm.Vm.pv.Vm.pv_console then 1 else 0);
  add_int buf (if vm.Vm.pv.Vm.pv_pt then 1 else 0);
  Array.iter
    (fun (vcpu : Vcpu.t) ->
      let s = vcpu.Vcpu.state in
      Array.iter (add_i64 buf) s.Cpu.regs;
      add_i64 buf s.Cpu.pc;
      add_int buf (match s.Cpu.mode with Arch.User -> 0 | Arch.Supervisor -> 1);
      Array.iter (add_i64 buf) s.Cpu.csrs;
      add_int buf (if s.Cpu.halted then 1 else 0);
      add_int buf (if s.Cpu.waiting then 1 else 0);
      add_i64 buf s.Cpu.instret;
      add_int buf
        (match vcpu.Vcpu.runstate with
        | Vcpu.Runnable | Vcpu.Running -> 0
        | Vcpu.Blocked -> 1
        | Vcpu.Halted -> 2))
    vm.Vm.vcpus;
  let pages = ref [] in
  P2m.iter vm.Vm.p2m ~f:(fun ~gfn entry ->
      match entry with
      | P2m.Ballooned -> pages := (gfn, `Ballooned) :: !pages
      | P2m.Absent -> pages := (gfn, `Absent) :: !pages
      | P2m.Present _ | P2m.Swapped _ | P2m.Remote -> pages := (gfn, `Data) :: !pages);
  let pages = List.rev !pages in
  add_int buf (List.length pages);
  List.iter
    (fun (gfn, kind) ->
      add_i64 buf gfn;
      match kind with
      | `Ballooned -> add_int buf 1
      | `Absent -> add_int buf 2
      | `Data -> (
          add_int buf 0;
          match Vm.resolve_read vm gfn with
          | Some ppn -> Buffer.add_bytes buf (Phys_mem.frame_read vm.Vm.host.Host.mem ~ppn)
          | None -> Buffer.add_bytes buf (Bytes.make Arch.page_size '\000')))
    pages;
  add_str buf (Vm.console_output vm);
  Buffer.to_bytes buf

(* A quiesced VM with every page state the encoder distinguishes: data
   pages, ballooned, never-populated (absent), swapped out to the host,
   and remote with no fetcher (encoded as a zero page); several vCPUs
   with arbitrary architectural state; a console; any name length.  The
   same spec always builds the same VM. *)
let snapshot_vm_gen =
  QCheck2.Gen.(
    quad
      (pair (string_size ~gen:printable (int_range 0 13)) (int_range 1 3))
      (list_size (int_range 1 12) (int_range 0 4))
      (pair (string_size ~gen:char (int_range 0 40)) (triple bool bool bool))
      (int_range 0 1_000_000))

let build_snapshot_vm (name, vcpu_count) kinds (console, (shadow, pv_console, pv_pt)) seed =
  let hyp = make_hyp ~frames:512 () in
  let host = Hypervisor.host hyp in
  let mem_frames = List.length kinds in
  let vm =
    Hypervisor.create_vm hyp ~name ~mem_frames ~vcpu_count
      ~paging:(if shadow then Vm.Shadow_paging else Vm.Nested_paging)
      ~pv:{ Vm.pv_console; pv_pt } ~entry:0L ()
  in
  let rng = Velum_util.Rng.create ~seed:(Int64.of_int seed) in
  Array.iter
    (fun (vcpu : Vcpu.t) ->
      let s = vcpu.Vcpu.state in
      for i = 1 to Array.length s.Cpu.regs - 1 do
        s.Cpu.regs.(i) <- Velum_util.Rng.next rng
      done;
      Array.iteri (fun i _ -> s.Cpu.csrs.(i) <- Velum_util.Rng.next rng) s.Cpu.csrs;
      s.Cpu.pc <- Velum_util.Rng.next rng;
      s.Cpu.mode <- (if Velum_util.Rng.bool rng then Arch.User else Arch.Supervisor);
      s.Cpu.waiting <- Velum_util.Rng.bool rng;
      s.Cpu.instret <- Velum_util.Rng.next rng;
      vcpu.Vcpu.runstate <-
        (match Velum_util.Rng.int rng 3 with
        | 0 -> Vcpu.Runnable
        | 1 -> Vcpu.Blocked
        | _ -> Vcpu.Halted))
    vm.Vm.vcpus;
  let release gfn =
    match P2m.get vm.Vm.p2m gfn with
    | P2m.Present { hpa_ppn; _ } -> ignore (Frame_alloc.decr_ref host.Host.alloc hpa_ppn)
    | _ -> ()
  in
  List.iteri
    (fun i kind ->
      let gfn = Int64.of_int i in
      let page = Bytes.init Arch.page_size (fun j -> Char.chr ((seed + (i * 131) + j) land 0xff)) in
      ignore (Vm.write_gpa_bytes vm (Int64.mul gfn (Int64.of_int Arch.page_size)) page);
      match kind with
      | 1 -> ignore (Vm.balloon_out vm gfn)
      | 2 ->
          release gfn;
          P2m.set vm.Vm.p2m gfn P2m.Absent
      | 3 -> (
          match P2m.get vm.Vm.p2m gfn with
          | P2m.Present { hpa_ppn; _ } ->
              let slot = Host.swap_out host ~ppn:hpa_ppn in
              release gfn;
              P2m.set vm.Vm.p2m gfn (P2m.Swapped { slot })
          | _ -> ())
      | 4 ->
          release gfn;
          P2m.set vm.Vm.p2m gfn P2m.Remote
      | _ -> ())
    kinds;
  String.iter (Vm.console_put vm) console;
  vm

let p2m_layout (vm : Vm.t) =
  let l = ref [] in
  P2m.iter vm.Vm.p2m ~f:(fun ~gfn e -> l := (gfn, e) :: !l);
  !l

let capture_matches_reference_prop =
  QCheck2.Test.make ~count:200 ~name:"capture is byte-identical to the reference encoder"
    snapshot_vm_gen
    (fun (id, kinds, extra, seed) ->
      let ref_vm = build_snapshot_vm id kinds extra seed in
      let vm = build_snapshot_vm id kinds extra seed in
      let expected = reference_capture ref_vm in
      let got = Snapshot.capture vm in
      (* same bytes, and the swapped pages came back into the same frames *)
      Bytes.equal expected got && p2m_layout ref_vm = p2m_layout vm)

let capture_restore_roundtrip_prop =
  QCheck2.Test.make ~count:100 ~name:"restore (capture vm) round-trips"
    snapshot_vm_gen
    (fun (id, kinds, extra, seed) ->
      let vm = build_snapshot_vm id kinds extra seed in
      let image = Snapshot.capture vm in
      let hyp = make_hyp ~frames:512 () in
      let vm' = Snapshot.restore hyp image in
      Bytes.equal image (Snapshot.capture vm'))

(* ---------------- replication: idempotent failover ---------------- *)

let test_failover_idempotent () =
  let setup =
    Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()
  in
  let primary = make_hyp ~frames:(setup.Images.frames + 512) () in
  let backup = make_hyp ~frames:(setup.Images.frames + 512) () in
  let vm =
    Hypervisor.create_vm primary ~name:"p" ~mem_frames:setup.Images.frames
      ~entry:Images.entry ()
  in
  Images.load_vm vm setup;
  ignore (Hypervisor.run primary ~budget:1_000_000L);
  let link = Link.create () in
  let session = Replicate.start ~primary ~backup ~vm ~link () in
  for _ = 1 to 3 do
    ignore (Replicate.epoch session ~run_cycles:150_000L)
  done;
  checkb "not yet failed over" true (Replicate.failed_over session = None);
  let twin1 = Replicate.failover session in
  (* the racing second invocation must return the same twin, not raise *)
  let twin2 = Replicate.failover session in
  checkb "same twin" true (twin1 == twin2);
  checkb "accessor agrees" true
    (match Replicate.failed_over session with
    | Some v -> v == twin1
    | None -> false);
  checki "failover event recorded once" 1
    (Monitor.count twin1.Vm.monitor Monitor.E_ha_failover);
  checkb "twin finishes on the backup" true
    (Hypervisor.run backup ~budget:50_000_000L = Hypervisor.Out_of_budget
    || Vm.halted twin1)

(* ---------------- watchdog policies ---------------- *)

let spin_forever = [ label "spin"; jmp "spin" ]
let wedge_now = [ wfi; halt ]

(* A stalled-but-not-halted VM next to a spinner that keeps the clock
   moving: Wd_kill must fire exactly once (the halt ends the stall
   window family for good). *)
let test_wd_kill_fires_once () =
  let hyp = make_hyp () in
  let _spin = unikernel hyp "spin" spin_forever in
  let stuck = unikernel hyp "stuck" wedge_now in
  Hypervisor.set_watchdog hyp ~budget:50_000L ~policy:Hypervisor.Wd_kill;
  ignore (Hypervisor.run hyp ~budget:2_000_000L);
  checki "fired exactly once" 1 (Hypervisor.watchdog_fired hyp);
  checki "counted on the stalled VM" 1 (Monitor.count stuck.Vm.monitor Monitor.E_watchdog);
  checkb "stalled VM halted" true (Vm.halted stuck)

(* Wd_notify restarts the window on each firing: one firing per full
   stall window, deterministically. *)
let test_wd_notify_once_per_window () =
  let fired budget =
    let hyp = make_hyp () in
    let _spin = unikernel hyp "spin" spin_forever in
    let stuck = unikernel hyp "stuck" wedge_now in
    Hypervisor.set_watchdog hyp ~budget ~policy:Hypervisor.Wd_notify;
    ignore (Hypervisor.run hyp ~budget:2_000_000L);
    checkb "still stalled, not halted" false (Vm.halted stuck);
    checki "counted on the stalled VM" (Hypervisor.watchdog_fired hyp)
      (Monitor.count stuck.Vm.monitor Monitor.E_watchdog);
    Hypervisor.watchdog_fired hyp
  in
  let n = fired 50_000L in
  checkb "fires once per elapsed window" true (n >= 2);
  checki "deterministic across identical runs" n (fired 50_000L);
  checkb "a shorter window fires at least as often" true (fired 25_000L >= n)

(* Wd_restart with no handler attached degenerates to kill. *)
let test_wd_restart_without_handler_kills () =
  let hyp = make_hyp () in
  let _spin = unikernel hyp "spin" spin_forever in
  let stuck = unikernel hyp "stuck" wedge_now in
  Hypervisor.set_watchdog hyp ~budget:50_000L ~policy:Hypervisor.Wd_restart;
  ignore (Hypervisor.run hyp ~budget:2_000_000L);
  checki "fired exactly once" 1 (Hypervisor.watchdog_fired hyp);
  checkb "stalled VM halted" true (Vm.halted stuck)

(* ---------------- HA supervisor ---------------- *)

let spin_n_then_halt n =
  [ li r2 (Int64.of_int n); label "spin"; addi r2 r2 (-1L); bne r2 r0 "spin"; halt ]

(* The guest spins, then wedges itself: every restore replays into the
   same wedge — the crash-loop shape. *)
let spin_then_wedge n =
  [ li r2 (Int64.of_int n); label "spin"; addi r2 r2 (-1L); bne r2 r0 "spin"; wfi; halt ]

let reference_instret prog =
  let hyp = make_hyp () in
  let vm = unikernel hyp "ref" prog in
  (match Hypervisor.run hyp with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "reference run did not halt");
  vm_instret vm

let supervised ?faults ?(checkpoint_every = 100_000L) ?(wd_budget = 30_000L)
    ?(backoff_base = 50_000L) ?max_restarts prog =
  let hyp = make_hyp () in
  let vm = unikernel hyp "work" prog in
  let probe = Snapshot.capture vm in
  let store =
    store_for ?faults ~image_bytes:(Snapshot.size_bytes probe) ()
  in
  let sup =
    Ha.create ~hyp ~store ~vm ~checkpoint_every ~wd_budget ~backoff_base
      ?max_restarts ()
  in
  (hyp, sup)

(* An externally injected stall: the supervisor must notice, destroy the
   wedged VM, restore the last good checkpoint, and the guest must then
   finish with the exact instruction count of an undisturbed run —
   without a single manual recovery call. *)
let test_ha_restart_recovers () =
  let prog = spin_n_then_halt 100_000 in
  let base = reference_instret prog in
  let _hyp, sup = supervised prog in
  (* incremental commits pause the guest for the delta only, so keep the
     budget well short of the ~200k instructions the program needs *)
  (match Ha.run sup ~budget:150_000L with
  | Hypervisor.Out_of_budget -> ()
  | _ -> Alcotest.fail "guest should still be running");
  checkb "checkpoints committed" true ((Ha.stats sup).Ha.checkpoints >= 1);
  Ha.inject_stall (Ha.vm sup);
  (match Ha.run sup ~budget:50_000_000L with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "supervised guest must finish after the restart");
  let s = Ha.stats sup in
  checki "exactly one restart" 1 s.Ha.restarts;
  checkb "not degraded" false s.Ha.degraded;
  checki "restart recorded on the restored VM" 1
    (Monitor.count (Ha.vm sup).Vm.monitor Monitor.E_ha_restart);
  checkb "MTTR accounted" true (s.Ha.mttr_events = 1 && s.Ha.mttr_total > 0L);
  check64 "lockstep with the undisturbed run" base (vm_instret (Ha.vm sup))

(* A guest that wedges from its own state replays into the wedge on
   every restore: the crash-loop budget must bound the futility and
   degrade the VM to halted, with the Monitor event to show for it. *)
let test_ha_crash_loop_degrades () =
  let _hyp, sup = supervised ~checkpoint_every:30_000L (spin_then_wedge 50_000) in
  (match Ha.run sup ~budget:100_000_000L with
  | Hypervisor.All_halted -> ()
  | o ->
      Alcotest.failf "degraded VM should read as halted, got %s"
        (match o with
        | Hypervisor.Out_of_budget -> "out-of-budget"
        | Hypervisor.Idle_deadlock -> "idle-deadlock"
        | _ -> "?"));
  let s = Ha.stats sup in
  checkb "degraded" true s.Ha.degraded;
  checki "restart budget exhausted" 3 s.Ha.restarts;
  checki "degradation recorded" 1
    (Monitor.count (Ha.vm sup).Vm.monitor Monitor.E_ha_degraded);
  checkb "kept registered for post-mortem" true
    (Array.length (Ha.vm sup).Vm.vcpus > 0)

(* End-to-end adversarial run: torn checkpoint commits and latent rot
   from a seeded plan, plus an injected stall — recovery must be fully
   automatic (the test only ever calls Ha.run) and land on the exact
   instruction count of the fault-free run. *)
let test_ha_adversarial_end_to_end () =
  let prog = spin_n_then_halt 100_000 in
  let base = reference_instret prog in
  let f = Fault.create ~seed:7L () in
  Fault.set_prob f Fault.Store_torn 0.3;
  Fault.set_prob f Fault.Store_csum 0.15;
  let _hyp, sup = supervised ~faults:f prog in
  ignore (Ha.run sup ~budget:300_000L);
  Ha.inject_stall (Ha.vm sup);
  (match Ha.run sup ~budget:100_000_000L with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "adversarial run must still finish");
  let s = Ha.stats sup in
  checkb "not degraded" false s.Ha.degraded;
  checkb "the plan actually bit" true
    (s.Ha.torn_checkpoints >= 1 || Fault.injected f Fault.Store_csum >= 1);
  check64 "lockstep with the fault-free run" base (vm_instret (Ha.vm sup))

(* A torn checkpoint must be retried on the next tick even when the
   guest did nothing in between.  A register-only guest shares the pCPU
   with a hog: a cadence shorter than the scheduler slice gives ticks in
   which it retires nothing and dirties nothing, yet stays runnable.  The
   plan tears commit ordinal 1 (the first cadence commit after the
   baseline); with the plan cleared, the very next such idle tick must
   commit, so the store holds the state the VM actually has. *)
let test_ha_torn_checkpoint_retried_when_idle () =
  let hyp = make_hyp () in
  let _hog = unikernel hyp "hog" spin_forever in
  let vm = unikernel hyp "work" [ label "spin"; addi r2 r2 1L; jmp "spin" ] in
  let f = Fault.create ~seed:1L () in
  Fault.add_window f Fault.Store_torn ~lo:1L ~hi:1L;
  let store =
    store_for ~faults:f ~image_bytes:(Snapshot.size_bytes (Snapshot.capture vm)) ()
  in
  let sup =
    Ha.create ~hyp ~store ~vm ~checkpoint_every:30_000L ~wd_budget:10_000_000L ()
  in
  let tick () =
    let before = vm_instret (Ha.vm sup) in
    ignore (Ha.run sup ~budget:30_000L);
    Int64.equal before (vm_instret (Ha.vm sup))
  in
  let rec until_torn n =
    if n = 0 then Alcotest.fail "the window never tore a commit";
    ignore (tick ());
    if (Ha.stats sup).Ha.torn_checkpoints = 0 then until_torn (n - 1)
  in
  until_torn 10;
  checki "baseline only" 1 (Ha.stats sup).Ha.checkpoints;
  Store.set_faults store (Fault.none ());
  let rec until_idle n =
    if n = 0 then Alcotest.fail "the guest was never idle for a whole tick";
    if not (tick ()) then until_idle (n - 1)
  in
  until_idle 10;
  let s = Ha.stats sup in
  checki "the idle tick retried and committed" 2 s.Ha.checkpoints;
  checki "one torn commit" 1 s.Ha.torn_checkpoints;
  match Store.recover store with
  | Some (image, 2) ->
      checkb "the store holds the VM's current state" true
        (Bytes.equal image (Snapshot.capture (Ha.vm sup)))
  | _ -> Alcotest.fail "generation 2 must recover"

(* ---------------- heartbeat failover ---------------- *)

let failover_setup () =
  let setup =
    Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()
  in
  let primary = make_hyp ~frames:(setup.Images.frames + 512) () in
  let backup = make_hyp ~frames:(setup.Images.frames + 512) () in
  let vm =
    Hypervisor.create_vm primary ~name:"prot" ~mem_frames:setup.Images.frames
      ~entry:Images.entry ()
  in
  Images.load_vm vm setup;
  ignore (Hypervisor.run primary ~budget:1_000_000L);
  (primary, backup, vm, Link.create ())

let test_failover_healthy_run () =
  let primary, backup, vm, link = failover_setup () in
  let fo = Ha.Failover.create ~primary ~backup ~vm ~link () in
  let survivor, s = Ha.Failover.run fo ~epoch_cycles:150_000L ~epochs:12 in
  checkb "no failover" true (s.Ha.Failover.failover_at = None);
  checki "generation unchanged" 1 s.Ha.Failover.generation;
  checkb "survivor is the primary instance" true (survivor == vm);
  checkb "heartbeats flowed" true (s.Ha.Failover.hb_seen >= 10);
  checkb "primary still allowed to run" true (Ha.Failover.primary_may_run fo)

(* Host death: heartbeats stop, the backup counts misses and activates
   the twin on its own — zero manual failover calls. *)
let test_failover_on_primary_death () =
  let primary, backup, vm, link = failover_setup () in
  let fo =
    Ha.Failover.create ~primary ~backup ~vm ~link ~primary_dies_at:1_500_000L ()
  in
  let survivor, s = Ha.Failover.run fo ~epoch_cycles:150_000L ~epochs:20 in
  checkb "failed over" true (s.Ha.Failover.failover_at <> None);
  checki "generation bumped once" 2 s.Ha.Failover.generation;
  checkb "survivor is the twin" true (survivor != vm);
  checki "failover event recorded" 1
    (Monitor.count survivor.Vm.monitor Monitor.E_ha_failover);
  checkb "twin ran on the backup" true (s.Ha.Failover.backup_epochs >= 1);
  (match s.Ha.Failover.mttr with
  | Some m -> checkb "MTTR covers the miss window" true (m > 0L)
  | None -> Alcotest.fail "MTTR must be measured");
  checkb "dead primary never fenced (it never came back)" false s.Ha.Failover.fenced

(* Split-brain: every heartbeat is eaten but the primary is alive.  The
   backup takes over; the stale primary must fence itself on the first
   TAKEOVER it hears and refuse to run from then on. *)
let test_failover_fences_stale_primary () =
  let primary, backup, vm, link = failover_setup () in
  let f = Fault.create ~seed:11L () in
  Fault.set_prob f Fault.Hb_loss 1.0;
  let fo = Ha.Failover.create ~faults:f ~primary ~backup ~vm ~link () in
  let survivor, s = Ha.Failover.run fo ~epoch_cycles:150_000L ~epochs:16 in
  checkb "failed over" true (s.Ha.Failover.failover_at <> None);
  checki "generation bumped" 2 s.Ha.Failover.generation;
  checkb "every heartbeat was eaten" true
    (s.Ha.Failover.hb_sent = 0 && s.Ha.Failover.hb_lost >= 3);
  checkb "losses observed at detection" true (Fault.observed f Fault.Hb_loss >= 1);
  checkb "stale primary fenced" true s.Ha.Failover.fenced;
  checkb "fenced primary may not run" false (Ha.Failover.primary_may_run fo);
  checkb "split-brain window was bounded" true
    (s.Ha.Failover.split_brain_epochs >= 1
    && s.Ha.Failover.split_brain_epochs <= 3);
  checkb "survivor is the twin" true (survivor != vm);
  checki "primary's instance destroyed by the fence" 0
    (List.length primary.Hypervisor.vms)

(* Same seed, same schedule: the whole failover drama is deterministic. *)
let failover_deterministic_prop =
  QCheck2.Test.make ~count:4 ~name:"seeded heartbeat-loss failover is deterministic"
    QCheck2.Gen.(int_range 0 999)
    (fun seed ->
      let run () =
        let primary, backup, vm, link = failover_setup () in
        let f = Fault.create ~seed:(Int64.of_int seed) () in
        Fault.set_prob f Fault.Hb_loss 0.4;
        let fo = Ha.Failover.create ~faults:f ~primary ~backup ~vm ~link () in
        let survivor, s = Ha.Failover.run fo ~epoch_cycles:120_000L ~epochs:14 in
        let open Ha.Failover in
        ( s.hb_sent, s.hb_lost, s.hb_seen, s.generation, s.fenced, s.failover_at,
          s.mttr, s.primary_epochs, s.backup_epochs, vm_instret survivor )
      in
      run () = run ())

let () =
  Alcotest.run "ha"
    [
      ( "store",
        Alcotest.test_case "generations alternate and survive remount" `Quick
          test_store_generations
        :: Alcotest.test_case "store.torn window tears a commit" `Quick
             test_store_torn_site
        :: Alcotest.test_case "store.csum rot falls back a generation" `Quick
             test_store_csum_rot
        :: Alcotest.test_case "new fault sites parse" `Quick test_new_sites_parse
        :: Alcotest.test_case "store.gc window tears a compaction" `Quick
             test_store_gc_site
        :: Alcotest.test_case "store.ref rot is detected and rebuilt" `Quick
             test_store_ref_site
        :: qsuite
             [
               store_crash_sweep_prop; store_gc_live_prop;
               store_delta_oracle_prop; store_last_image_oracle_prop;
             ] );
      ( "snapshot",
        Alcotest.test_case "truncated image rejected without trace" `Quick
          test_truncated_restore_rejected
        :: qsuite
             [
               restore_no_leak_prop; capture_matches_reference_prop;
               capture_restore_roundtrip_prop;
             ] );
      ( "replication",
        [ Alcotest.test_case "failover is idempotent" `Quick test_failover_idempotent ] );
      ( "watchdog",
        [
          Alcotest.test_case "kill fires exactly once" `Quick test_wd_kill_fires_once;
          Alcotest.test_case "notify fires once per stall window" `Quick
            test_wd_notify_once_per_window;
          Alcotest.test_case "restart without handler kills" `Quick
            test_wd_restart_without_handler_kills;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "restart recovers to lockstep" `Quick
            test_ha_restart_recovers;
          Alcotest.test_case "crash loop degrades to halted" `Quick
            test_ha_crash_loop_degrades;
          Alcotest.test_case "adversarial plan, zero manual recovery" `Quick
            test_ha_adversarial_end_to_end;
          Alcotest.test_case "torn checkpoint retried on an idle tick" `Quick
            test_ha_torn_checkpoint_retried_when_idle;
        ] );
      ( "failover",
        Alcotest.test_case "healthy run never fails over" `Quick
          test_failover_healthy_run
        :: Alcotest.test_case "primary death drives automatic failover" `Quick
             test_failover_on_primary_death
        :: Alcotest.test_case "stale primary is generation-fenced" `Quick
             test_failover_fences_stale_primary
        :: qsuite [ failover_deterministic_prop ] );
    ]
