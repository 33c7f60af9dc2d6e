(* The benchmark's arithmetic against naive oracles. *)

open Velum_perf
open Velum_vmm
open Velum_guests

let fail fmt = Printf.ksprintf failwith fmt

(* The smallest sample x with at least p% of all samples <= x. *)
let oracle_percentile a p =
  let n = Array.length a in
  let at_or_below x = Array.fold_left (fun c y -> if y <= x then c + 1 else c) 0 a in
  Array.fold_left
    (fun best x ->
      if 100. *. float_of_int (at_or_below x) >= p *. float_of_int n && x < best then x
      else best)
    infinity a

let test_percentile () =
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 2000 do
    let n = 1 + Random.State.int rng 300 in
    let range = 1 + Random.State.int rng 1000 in
    let a = Array.init n (fun _ -> float_of_int (Random.State.int rng range)) in
    List.iter
      (fun p ->
        let got = Pstats.percentile a p and want = oracle_percentile a p in
        if got <> want then fail "percentile n=%d p=%g: %g, oracle %g" n p got want)
      [ 0.; 1.; 25.; 50.; 90.; 95.; 99.; 99.9; 100.; Random.State.float rng 100. ]
  done;
  if Pstats.beyond ~n:1000 99. <> 10 then fail "beyond 1000 p99";
  if Pstats.beyond ~n:999 99. <> 9 then fail "beyond 999 p99"

let test_median () =
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 1000 do
    let n = 1 + Random.State.int rng 50 in
    let a = Array.init n (fun _ -> Random.State.float rng 10.) in
    let m = Pstats.median a in
    let below = Array.fold_left (fun c x -> if x < m then c + 1 else c) 0 a in
    let above = Array.fold_left (fun c x -> if x > m then c + 1 else c) 0 a in
    if 2 * below > n || 2 * above > n then fail "median of %d samples unbalanced" n
  done;
  if Pstats.median [| 4.; 1.; 3.; 2. |] <> 2.5 then fail "even median"

let test_ratio () =
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 1000 do
    let part = Random.State.float rng 1e6 and whole = 1. +. Random.State.float rng 1e6 in
    let r = Pstats.ratio part whole in
    if Float.abs ((r *. whole) -. part) > 1e-9 *. part then fail "ratio %g/%g" part whole
  done;
  if Pstats.ratio 5. 0. <> 0. then fail "ratio over 0"

(* Shares and per-exit costs summed by Acct, against the hypervisor's
   and monitor's own totals for a host running two VMs to halt. *)
let test_acct () =
  let host = Host.create ~frames:8192 () in
  let hyp = Hypervisor.create ~host () in
  let boot name paging user =
    let setup = Images.plan ~user () in
    let vm =
      Hypervisor.create_vm hyp ~name ~mem_frames:setup.Images.frames ~paging
        ~entry:Images.entry ()
    in
    Images.load_vm vm setup
  in
  boot "syscalls" Vm.Nested_paging (Workloads.syscall_loop ~count:300L);
  boot "churn" Vm.Shadow_paging (Workloads.pt_churn ~batch:8 ~count:40 ());
  if Hypervisor.run hyp <> Hypervisor.All_halted then fail "acct VMs did not halt";
  let a = Acct.of_vms hyp.Hypervisor.vms in
  let guest = Hypervisor.guest_cycles hyp and vmm = Hypervisor.vmm_cycles hyp in
  if a.Acct.guest <> guest || a.Acct.vmm <> vmm then fail "cycle sums differ";
  let share = Int64.to_float vmm /. Int64.to_float (Int64.add guest vmm) in
  if Acct.vmm_share a <> share then fail "vmm_share %g, hypervisor %g" (Acct.vmm_share a) share;
  if share <= 0. || share >= 1. then fail "vmm_share %g out of (0,1)" share;
  let exits = List.fold_left (fun s vm -> s + Monitor.total_exits vm.Vm.monitor) 0 hyp.Hypervisor.vms in
  if Acct.total_exits a <> exits then fail "exit total";
  List.iter
    (fun k ->
      let count = List.fold_left (fun s vm -> s + Monitor.count vm.Vm.monitor k) 0 hyp.Hypervisor.vms in
      let cyc =
        List.fold_left (fun s vm -> Int64.add s (Monitor.cycles vm.Vm.monitor k)) 0L hyp.Hypervisor.vms
      in
      let want = if count = 0 then 0. else Int64.to_float cyc /. 1000. /. float_of_int count in
      if Acct.exit_kcyc a k <> want then fail "exit_kcyc %s" (Monitor.exit_kind_name k))
    Monitor.all_exit_kinds;
  if Acct.exit_kcyc a Monitor.E_pt_write = 0. then fail "shadow churn VM made no pt-write exits"

let () =
  test_percentile ();
  test_median ();
  test_ratio ();
  test_acct ();
  print_endline "perfbench arithmetic: ok"
