open Velum_isa
open Velum_machine

type full = Bytes.t

let magic = 0x56454C4D534E5031L (* "VELMSNP1" *)

(* --- little-endian reader --- *)

type reader = { data : Bytes.t; mutable pos : int }

let get_i64 r =
  if r.pos + 8 > Bytes.length r.data then failwith "Snapshot: truncated image";
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let get_int r = Int64.to_int (get_i64 r)

let get_str r =
  let n = get_int r in
  if n < 0 || r.pos + n > Bytes.length r.data then failwith "Snapshot: truncated image";
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* --- full snapshots --- *)

let runstate_code = function
  | Vcpu.Runnable | Vcpu.Running -> 0
  | Vcpu.Blocked -> 1
  | Vcpu.Halted -> 2

let runstate_of_code = function
  | 0 -> Vcpu.Runnable
  | 1 -> Vcpu.Blocked
  | 2 -> Vcpu.Halted
  | _ -> failwith "Snapshot: bad runstate"

let capture (vm : Vm.t) =
  (* Page states: 1 = ballooned, 2 = absent, 0 = present (with data).
     Swapped pages are pulled back in by resolve_read. *)
  let pages = ref [] and data_pages = ref 0 in
  P2m.iter vm.Vm.p2m ~f:(fun ~gfn entry ->
      let kind =
        match entry with
        | P2m.Ballooned -> 1
        | P2m.Absent -> 2
        | P2m.Present _ | P2m.Swapped _ | P2m.Remote ->
            incr data_pages;
            0
      in
      pages := (gfn, kind) :: !pages);
  let pages = List.rev !pages in
  let console = Vm.console_output vm in
  let vcpu_bytes =
    Array.fold_left
      (fun acc (vcpu : Vcpu.t) ->
        let s = vcpu.Vcpu.state in
        acc + (8 * (Array.length s.Cpu.regs + Array.length s.Cpu.csrs + 6)))
      0 vm.Vm.vcpus
  in
  let size =
    (* magic, name, five header words; vCPUs; page count, a gfn and kind
       word per page, data pages; console *)
    (8 + 8 + String.length vm.Vm.name + 40)
    + vcpu_bytes
    + (8 + (16 * List.length pages) + (Arch.page_size * !data_pages))
    + (8 + String.length console)
  in
  let b = Bytes.create size in
  let pos = ref 0 in
  let add_i64 v =
    Bytes.set_int64_le b !pos v;
    pos := !pos + 8
  in
  let add_int v = add_i64 (Int64.of_int v) in
  let add_str s =
    add_int (String.length s);
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  add_i64 magic;
  add_str vm.Vm.name;
  add_int (Vm.mem_frames vm);
  add_int (Array.length vm.Vm.vcpus);
  add_int (match vm.Vm.paging with Vm.Shadow_paging -> 0 | Vm.Nested_paging -> 1);
  add_int (if vm.Vm.pv.Vm.pv_console then 1 else 0);
  add_int (if vm.Vm.pv.Vm.pv_pt then 1 else 0);
  Array.iter
    (fun (vcpu : Vcpu.t) ->
      let s = vcpu.Vcpu.state in
      Array.iter add_i64 s.Cpu.regs;
      add_i64 s.Cpu.pc;
      add_int (match s.Cpu.mode with Arch.User -> 0 | Arch.Supervisor -> 1);
      Array.iter add_i64 s.Cpu.csrs;
      add_int (if s.Cpu.halted then 1 else 0);
      add_int (if s.Cpu.waiting then 1 else 0);
      add_i64 s.Cpu.instret;
      add_int (runstate_code vcpu.Vcpu.runstate))
    vm.Vm.vcpus;
  add_int (List.length pages);
  List.iter
    (fun (gfn, kind) ->
      add_i64 gfn;
      add_int kind;
      if kind = 0 then begin
        (match Vm.resolve_read vm gfn with
        | Some ppn -> Phys_mem.frame_read_into vm.Vm.host.Host.mem ~ppn b ~pos:!pos
        | None -> Bytes.fill b !pos Arch.page_size '\000');
        pos := !pos + Arch.page_size
      end)
    pages;
  add_str console;
  b

let size_bytes = Bytes.length

let restore hyp image =
  let r = { data = image; pos = 0 } in
  if get_i64 r <> magic then failwith "Snapshot: bad magic";
  let name = get_str r in
  let mem_frames = get_int r in
  let vcpu_count = get_int r in
  (* Validate the header before allocating anything: a corrupt image must
     not drive [create_vm] into absurd allocations (or negative array
     sizes, which would escape as [Invalid_argument]). *)
  if mem_frames <= 0 || mem_frames > 1 lsl 24 then failwith "Snapshot: bad header";
  if vcpu_count <= 0 || vcpu_count > 1024 then failwith "Snapshot: bad header";
  let paging = if get_int r = 0 then Vm.Shadow_paging else Vm.Nested_paging in
  let pv_console = get_int r = 1 in
  let pv_pt = get_int r = 1 in
  let vm =
    Hypervisor.create_vm hyp ~name ~mem_frames ~vcpu_count ~paging
      ~pv:{ Vm.pv_console; pv_pt } ~entry:0L ()
  in
  (* From here on the VM owns frames and is registered: any parse failure
     must tear it down completely (frames reclaimed, scheduler and VM
     list clean) before the error propagates, or every rejected image
     would leak its partial restore. *)
  try
    Array.iter
      (fun (vcpu : Vcpu.t) ->
        let s = vcpu.Vcpu.state in
        for i = 0 to Array.length s.Cpu.regs - 1 do
          s.Cpu.regs.(i) <- get_i64 r
        done;
        s.Cpu.pc <- get_i64 r;
        s.Cpu.mode <- (if get_int r = 0 then Arch.User else Arch.Supervisor);
        for i = 0 to Array.length s.Cpu.csrs - 1 do
          s.Cpu.csrs.(i) <- get_i64 r
        done;
        s.Cpu.halted <- get_int r = 1;
        s.Cpu.waiting <- get_int r = 1;
        s.Cpu.instret <- get_i64 r;
        vcpu.Vcpu.runstate <- runstate_of_code (get_int r))
      vm.Vm.vcpus;
    let npages = get_int r in
    if npages < 0 || npages > mem_frames then failwith "Snapshot: bad page count";
    for _ = 1 to npages do
      let gfn = get_i64 r in
      match get_int r with
      | 1 -> ignore (Vm.balloon_out vm gfn)
      | 2 -> (
          (* absent in the source: free the eagerly allocated frame *)
          match P2m.get vm.Vm.p2m gfn with
          | P2m.Present { hpa_ppn; _ } ->
              ignore (Frame_alloc.decr_ref vm.Vm.host.Host.alloc hpa_ppn);
              P2m.set vm.Vm.p2m gfn P2m.Absent
          | _ -> ())
      | 0 -> (
          if r.pos + Arch.page_size > Bytes.length image then
            failwith "Snapshot: truncated page data";
          let page = Bytes.sub image r.pos Arch.page_size in
          r.pos <- r.pos + Arch.page_size;
          match Vm.resolve_write vm gfn with
          | Some ppn -> Phys_mem.frame_write vm.Vm.host.Host.mem ~ppn page
          | None -> failwith "Snapshot: cannot place page")
      | _ -> failwith "Snapshot: bad page kind"
    done;
    let console = get_str r in
    String.iter (fun c -> Vm.console_put vm c) console;
    vm
  with e ->
    Hypervisor.remove_vm hyp vm;
    raise e

(* --- live (copy-on-write) snapshots --- *)

type live = {
  src_host : Host.t;
  l_name : string;
  l_paging : Vm.paging_mode;
  l_pv : Vm.pv;
  l_mem_frames : int;
  l_vcpus : (Cpu.state * Vcpu.runstate) array;
  l_frames : (int64 * int64) list; (* gfn, hpa (ref held) *)
  mutable released : bool;
}

let capture_live (vm : Vm.t) =
  let host = vm.Vm.host in
  let frames = ref [] in
  P2m.iter vm.Vm.p2m ~f:(fun ~gfn entry ->
      match entry with
      | P2m.Present { hpa_ppn; _ } ->
          Frame_alloc.incr_ref host.Host.alloc hpa_ppn;
          (* The running VM's copy becomes COW so its future writes
             cannot leak into the snapshot. *)
          P2m.set vm.Vm.p2m gfn
            (P2m.Present { hpa_ppn; writable = false; cow = true });
          (match vm.Vm.shadow with Some s -> Shadow.invalidate_gfn s gfn | None -> ());
          frames := (gfn, hpa_ppn) :: !frames
      | _ -> ());
  Vm.flush_all_tlbs vm;
  {
    src_host = host;
    l_name = vm.Vm.name ^ "-snap";
    l_paging = vm.Vm.paging;
    l_pv = vm.Vm.pv;
    l_mem_frames = Vm.mem_frames vm;
    l_vcpus =
      Array.map (fun v -> (Cpu.copy_state v.Vcpu.state, v.Vcpu.runstate)) vm.Vm.vcpus;
    l_frames = List.rev !frames;
    released = false;
  }

let live_pages l = List.length l.l_frames

let restore_live hyp (l : live) =
  if l.released then failwith "Snapshot.restore_live: snapshot released";
  if not (Hypervisor.host hyp == l.src_host) then
    failwith "Snapshot.restore_live: snapshot frames live on a different host";
  let vm =
    Hypervisor.create_vm hyp ~name:l.l_name ~mem_frames:l.l_mem_frames
      ~vcpu_count:(Array.length l.l_vcpus) ~paging:l.l_paging ~pv:l.l_pv
      ~populate:false ~entry:0L ()
  in
  List.iter
    (fun (gfn, hpa) ->
      Frame_alloc.incr_ref l.src_host.Host.alloc hpa;
      P2m.set vm.Vm.p2m gfn (P2m.Present { hpa_ppn = hpa; writable = false; cow = true }))
    l.l_frames;
  Array.iteri
    (fun i (state, runstate) ->
      let vcpu = vm.Vm.vcpus.(i) in
      let s = vcpu.Vcpu.state in
      Array.blit state.Cpu.regs 0 s.Cpu.regs 0 (Array.length s.Cpu.regs);
      Array.blit state.Cpu.csrs 0 s.Cpu.csrs 0 (Array.length s.Cpu.csrs);
      s.Cpu.pc <- state.Cpu.pc;
      s.Cpu.mode <- state.Cpu.mode;
      s.Cpu.halted <- state.Cpu.halted;
      s.Cpu.waiting <- state.Cpu.waiting;
      s.Cpu.instret <- state.Cpu.instret;
      vcpu.Vcpu.runstate <- runstate)
    l.l_vcpus;
  vm

let release_live (l : live) =
  if not l.released then begin
    l.released <- true;
    List.iter
      (fun (_gfn, hpa) -> ignore (Frame_alloc.decr_ref l.src_host.Host.alloc hpa))
      l.l_frames
  end
