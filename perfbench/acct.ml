(* Simulated accounting summed over a set of VMs, read from each VM's
   vCPUs, monitor, translation cache and TLBs.  Every field is a
   simulated count, so two runs of the same inputs must agree exactly. *)

open Velum_vmm
module Cpu = Velum_machine.Cpu
module Engine = Velum_machine.Engine
module Tc = Velum_machine.Trans_cache
module Tlb = Velum_machine.Tlb

type t = {
  mutable vms : int;
  mutable instret : int64;
  mutable guest : int64;  (** guest cycles *)
  mutable vmm : int64;  (** VMM cycles *)
  exits : int array;  (** per {!Monitor.kind_index} *)
  exit_cycles : int64 array;
  mutable tc_hits : int;
  mutable tc_misses : int;
  mutable tc_invalidations : int;
  mutable chain_follows : int;
  mutable trace_follows : int;
  mutable trace_side_exits : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
}

let create () =
  {
    vms = 0;
    instret = 0L;
    guest = 0L;
    vmm = 0L;
    exits = Array.make Monitor.nkinds 0;
    exit_cycles = Array.make Monitor.nkinds 0L;
    tc_hits = 0;
    tc_misses = 0;
    tc_invalidations = 0;
    chain_follows = 0;
    trace_follows = 0;
    trace_side_exits = 0;
    tlb_hits = 0;
    tlb_misses = 0;
  }

let add_vm t vm =
  t.vms <- t.vms + 1;
  Array.iter
    (fun v ->
      t.instret <- Int64.add t.instret v.Vcpu.state.Cpu.instret;
      t.guest <- Int64.add t.guest v.Vcpu.guest_cycles;
      t.vmm <- Int64.add t.vmm v.Vcpu.vmm_cycles)
    vm.Vm.vcpus;
  List.iter
    (fun k ->
      let i = Monitor.kind_index k in
      t.exits.(i) <- t.exits.(i) + Monitor.count vm.Vm.monitor k;
      t.exit_cycles.(i) <- Int64.add t.exit_cycles.(i) (Monitor.cycles vm.Vm.monitor k))
    Monitor.all_exit_kinds;
  (match vm.Vm.engine.Engine.cache with
  | Some c ->
      t.tc_hits <- t.tc_hits + Tc.hits c;
      t.tc_misses <- t.tc_misses + Tc.misses c;
      t.tc_invalidations <- t.tc_invalidations + Tc.invalidations c;
      t.chain_follows <- t.chain_follows + Tc.chain_follows c;
      t.trace_follows <- t.trace_follows + Tc.trace_follows c;
      t.trace_side_exits <- t.trace_side_exits + Tc.trace_side_exits c
  | None -> ());
  Array.iter
    (fun tlb ->
      t.tlb_hits <- t.tlb_hits + Tlb.hits tlb;
      t.tlb_misses <- t.tlb_misses + Tlb.misses tlb)
    vm.Vm.tlbs

let of_vms vms =
  let t = create () in
  List.iter (add_vm t) vms;
  t

let total_exits t = Array.fold_left ( + ) 0 t.exits
let vmm_share t = Pstats.vmm_share ~guest:t.guest ~vmm:t.vmm

(* Mean VMM kilocycles per exit of kind [k]; 0 when the kind never
   exited. *)
let exit_kcyc t k =
  let i = Monitor.kind_index k in
  Pstats.ratio (Int64.to_float t.exit_cycles.(i) /. 1000.) (float_of_int t.exits.(i))

(* Every field, for byte-for-byte determinism comparisons. *)
let fingerprint t =
  Printf.sprintf "vms=%d instret=%Ld guest=%Ld vmm=%Ld exits=[%s] cyc=[%s] tlb=%d/%d"
    t.vms t.instret t.guest t.vmm
    (String.concat "," (Array.to_list (Array.map string_of_int t.exits)))
    (String.concat "," (Array.to_list (Array.map Int64.to_string t.exit_cycles)))
    t.tlb_hits t.tlb_misses
