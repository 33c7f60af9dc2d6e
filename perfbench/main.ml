(* Velum's end-to-end and per-layer benchmark.

     python3 perfbench/run.py --workload compute|net-rr|cluster-ckpt
                              --seed N --seconds S --trace 0|1
     dune exec perfbench/main.exe -- --saturation --seed N

   One run repeats one workload in passes until [--seconds] have elapsed
   (after an unmeasured warm-up pass, which alone sets heap_peak_mb) and
   reports the median pass.  Each pass builds its inputs from the seed
   (setup), then runs them (run phase).  With [--trace 0] the last stdout line is a JSON object with
   the end-to-end metrics; with [--trace 1] half the time runs untraced
   passes and half runs traced ones, whose timers around calls into each
   layer give the per-layer metrics.  Every simulated number must repeat
   exactly across passes (and, for net-rr, across domain counts); any
   correctness gate that fails ends the run with exit code 1 and no JSON.

   Workloads:
   - compute: six single-VM jobs on the block engine, each run to halt
     with [Hypervisor.run]: engine-bound (cpu-spin, branch-mix, memcpy),
     TLB-bound (memwalk, nested paging) and exit-bound (PV null-syscall,
     pgtable-churn under shadow paging).  Only the machine and VMM layers
     work.
   - net-rr: the switched virtio-net fabric under [Parallel]: per cell
     an LB, 2 backends and 2 open-loop clients, PV and block engine; half
     the cells at a light rate, half at a heavy rate, both below
     saturation ([--saturation] shows it).  No store.  A last,
     unmeasured pass runs on 2 domains and must match the measured
     1-domain passes exactly.  Measured passes use 1 domain because a
     2-domain pass stalls whenever the host steals either vCPU: on a
     2-vCPU guest its passes swung from 1.5 s to 7 s while 1-domain
     workloads held within 10%.
   - cluster-ckpt: [Control.run] on a [velum cluster]-shaped fleet with
     checkpoints every 4 rounds, one host kill and one drain, on 1
     domain with the interpreter.  Store, migration, coordinator and GC
     work; block engine, switch and virtio do not. *)

open Velum_util
open Velum_devices
open Velum_vmm
open Velum_guests
open Velum_perf
module P = Velum_cluster.Parallel
module C = Velum_cluster.Control
module Engine = Velum_machine.Engine

let clock = Unix.gettimeofday

exception Gate of string

let gate ok fmt = Printf.ksprintf (fun s -> if not ok then raise (Gate s)) fmt

(* ---------------- metric catalogue ---------------- *)

(* Must list the same names and units as BENCHMARK.json; run.py checks. *)
let end_to_end =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("guest_mips", "instr/us");
    ("req_per_s", "1/s"); ("heap_peak_mb", "MB"); ("vmm_share", "ratio");
  ]

let exit_kinds =
  Monitor.[ E_csr; E_sret; E_guest_trap; E_pt_write; E_shadow_fill; E_mmio ]

let per_layer =
  [
    ("lat_p50_kcyc", "kcyc"); ("lat_p99_kcyc", "kcyc");
    ("lat_p50_kcyc_heavy", "kcyc"); ("lat_p99_kcyc_heavy", "kcyc");
    ("lat_samples", "count"); ("lat_samples_heavy", "count");
    ("availability", "ratio");
    ("machine.instret", "count"); ("machine.spin_mips", "instr/us");
    ("machine.branch_mips", "instr/us"); ("machine.memcpy_mips", "instr/us");
    ("machine.memwalk_mips", "instr/us"); ("machine.tc_hit_ratio", "ratio");
    ("machine.chain_follows", "count"); ("machine.trace_follows", "count");
    ("machine.trace_side_exit_ratio", "ratio");
    ("machine.tc_invalidations", "count"); ("machine.tlb_miss_ratio", "ratio");
    ("vmm.exits", "count"); ("vmm.exits_per_kinstr", "ratio");
    ("vmm.exits_per_req", "ratio"); ("vmm.syscall_job_s", "s");
    ("vmm.ptchurn_job_s", "s");
  ]
  @ List.map
      (fun k -> ("vmm.exit_kcyc." ^ Monitor.exit_kind_name k, "kcyc"))
      exit_kinds
  @ [
      ("devices.switch_tick_s", "s"); ("devices.switch_ticks", "count");
      ("devices.frames_out", "count"); ("devices.frames_per_kick", "ratio");
      ("devices.drops", "count"); ("devices.undelivered", "count");
      ("guests.offered_req_per_mcyc", "1/Mcyc");
      ("guests.offered_req_per_mcyc_heavy", "1/Mcyc"); ("guests.images_s", "s");
      ("store.commits", "count"); ("store.logical_mb", "MB");
      ("store.written_mb", "MB"); ("store.chunks_live", "count");
      ("store.capture_ms", "ms"); ("store.commit_ms", "ms");
      ("store.recommit_ms", "ms");
      ("cluster.init_s", "s"); ("cluster.rounds", "count");
      ("cluster.round_ms_p50", "ms"); ("cluster.round_ms_p99", "ms");
      ("cluster.evacuated", "count"); ("cluster.mig_mb", "MB");
      ("cluster.hb_bytes", "bytes");
      ("gc.minor_mwords", "Mwords"); ("gc.promoted_mwords", "Mwords");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.pause_s", "s"); ("gc.pause_max_ms", "ms"); ("gc.lost_events", "count");
      ("trace.wall_s", "s"); ("trace.untraced_wall_s", "s");
      ("trace.overhead", "ratio");
    ]

(* ---------------- one pass ---------------- *)

type pass = {
  setup_s : float;
  wall_s : float;
  acct : Acct.t;
  ops : int;  (** completed operations *)
  attempted : int;
  failed : int;
  sim : (string * float) list;  (** workload-specific simulated metrics *)
  fingerprint : string;  (** every simulated number of the pass *)
  layers : (string * float) list;  (** per-layer metrics (traced passes) *)
}

(* Wall time of [f ()].  Per-layer timers wrap calls into a layer only
   in traced passes. *)
let timed f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

let machine_layers (a : Acct.t) =
  [
    ("machine.instret", Int64.to_float a.instret);
    ( "machine.tc_hit_ratio",
      Pstats.ratio (float_of_int a.tc_hits) (float_of_int (a.tc_hits + a.tc_misses)) );
    ("machine.chain_follows", float_of_int a.chain_follows);
    ("machine.trace_follows", float_of_int a.trace_follows);
    ( "machine.trace_side_exit_ratio",
      Pstats.ratio (float_of_int a.trace_side_exits) (float_of_int a.trace_follows) );
    ("machine.tc_invalidations", float_of_int a.tc_invalidations);
    ( "machine.tlb_miss_ratio",
      Pstats.ratio (float_of_int a.tlb_misses)
        (float_of_int (a.tlb_hits + a.tlb_misses)) );
  ]

let vmm_layers (a : Acct.t) ~ops =
  let exits = float_of_int (Acct.total_exits a) in
  [
    ("vmm.exits", exits);
    ("vmm.exits_per_kinstr", Pstats.ratio exits (Int64.to_float a.instret /. 1000.));
    ("vmm.exits_per_req", Pstats.ratio exits (float_of_int ops));
  ]
  @ List.map
      (fun k -> ("vmm.exit_kcyc." ^ Monitor.exit_kind_name k, Acct.exit_kcyc a k))
      exit_kinds

(* Seeded size jitter of +-2%: the seed changes the inputs, not the
   amount of work by more than the metrics' bounds. *)
let jitter rng base = base * (980 + Rng.int rng 41) / 1000

(* ---------------- compute ---------------- *)

type job = {
  jname : string;
  setup : Images.setup;
  paging : Vm.paging_mode;
  pv : bool;
}

let compute_jobs ~seed =
  let rng = Rng.create ~seed in
  let j = jitter rng in
  let plan ?(pv = false) ?(heap = 0) user =
    Images.plan ~pv_console:pv ~pv_pt:pv ~heap_pages:heap ~user ()
  in
  let nested = Vm.Nested_paging in
  [
    { jname = "cpu-spin"; paging = nested; pv = false;
      setup = plan (Workloads.cpu_spin ~iters:(Int64.of_int (j 3_500_000))) };
    { jname = "branch-mix"; paging = nested; pv = false;
      setup = plan (Workloads.branch_mix ~iters:(Int64.of_int (j 1_750_000))) };
    { jname = "memcpy"; paging = nested; pv = false;
      setup = plan ~heap:18 (Workloads.stream_copy ~words:4096 ~iters:(j 400)) };
    { jname = "memwalk"; paging = nested; pv = false;
      setup = plan ~heap:256 (Workloads.memwalk ~pages:256 ~iters:(j 500) ~write:true) };
    { jname = "null-syscall"; paging = nested; pv = true;
      setup = plan ~pv:true (Workloads.syscall_loop ~count:(Int64.of_int (j 50_000))) };
    { jname = "pgtable-churn"; paging = Vm.Shadow_paging; pv = false;
      setup = plan (Workloads.pt_churn ~batch:16 ~count:(j 700) ()) };
  ]

let compute_pass ~seed ~traced =
  let t0 = clock () in
  let jobs, images_s = timed (fun () -> compute_jobs ~seed) in
  let built =
    List.map
      (fun jb ->
        let host = Host.create ~frames:(jb.setup.Images.frames + 1024) () in
        let hyp = Hypervisor.create ~host () in
        let vm =
          Hypervisor.create_vm hyp ~name:jb.jname ~mem_frames:jb.setup.Images.frames
            ~paging:jb.paging
            ~pv:(if jb.pv then Vm.full_pv else Vm.no_pv)
            ~engine:Engine.Block ~entry:Images.entry ()
        in
        Images.load_vm vm jb.setup;
        (jb, hyp, vm))
      jobs
  in
  let t1 = clock () in
  let job_s =
    List.map
      (fun (jb, hyp, _) ->
        let outcome, dt = timed (fun () -> Hypervisor.run hyp ~budget:20_000_000_000L) in
        gate (outcome = Hypervisor.All_halted) "compute %s: did not halt" jb.jname;
        dt)
      built
  in
  let t2 = clock () in
  let acct = Acct.of_vms (List.map (fun (_, _, vm) -> vm) built) in
  let per_job = List.map2 (fun (jb, _, vm) dt -> (jb.jname, (Acct.of_vms [ vm ], dt))) built job_s in
  let fingerprint =
    String.concat "\n"
      (List.map (fun (n, (a, _)) -> n ^ " " ^ Acct.fingerprint a) per_job)
  in
  let njobs = List.length jobs in
  let layers =
    if not traced then []
    else
      let mips name =
        let a, dt = List.assoc name per_job in
        Pstats.ratio (Int64.to_float a.Acct.instret) (dt *. 1e6)
      in
      let secs name = snd (List.assoc name per_job) in
      [
        ("machine.spin_mips", mips "cpu-spin"); ("machine.branch_mips", mips "branch-mix");
        ("machine.memcpy_mips", mips "memcpy"); ("machine.memwalk_mips", mips "memwalk");
        ("vmm.syscall_job_s", secs "null-syscall");
        ("vmm.ptchurn_job_s", secs "pgtable-churn"); ("guests.images_s", images_s);
      ]
      @ machine_layers acct @ vmm_layers acct ~ops:njobs
  in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t1;
    acct;
    ops = njobs;
    attempted = njobs;
    failed = 0;
    sim = [];
    fingerprint;
    layers;
  }

(* ---------------- net-rr ---------------- *)

(* Per cell: port 0 = LB, 1..2 = backends, 3..4 = clients.  Cells
   [0, cells/2) run the light rate, the rest the heavy rate; the rate is
   the filler gap (guest spin iterations) between a client's batches. *)
let backends = 2
let clients = 2
let n_ports = 1 + backends + clients
let cells = 4
let batch = 4
let light_gap = 60_000
let heavy_gap = 30_000
let net_quantum = 400_000L
let mac p = Int64.of_int (0x10 + p)
let heavy cell = cell >= cells / 2

(* A growable buffer of raw samples owned by one cell (hence one
   domain); buffers are merged only after the run. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let contents s = Array.sub s.data 0 s.len

type cell = {
  lat : samples;  (** reply latency, cycles, at the switch egress to a client *)
  mutable req_in : int;  (** requests entering the LB port *)
  mutable first_req : int64;
  mutable last_req : int64;
  mutable tick_s : float;
  mutable ticks : int;
  mutable fabric : (Switch.t * Link.t array) option;
}

let net_requests ~seed =
  let rng = Rng.create ~seed in
  Array.init cells (fun _ -> batch * jitter rng 66)

let net_pass ?(requests_scale = 1) ~seed ~domains ~traced () =
  let t0 = clock () in
  let reqs = Array.map (fun r -> r * requests_scale) (net_requests ~seed) in
  let plan user = Images.plan ~pv_console:true ~pv_pt:true ~heap_pages:2 ~vnet:true ~user () in
  let (lb_setup, backend_setups, client_setups), images_s =
    timed (fun () ->
        ( plan (Workloads.vnet_lb ~my_mac:(mac 0) ~backends:(List.init backends (fun b -> mac (1 + b)))),
          List.init backends (fun b -> plan (Workloads.vnet_backend ~my_mac:(mac (1 + b)) ~service:150)),
          Array.init cells (fun i ->
              List.init clients (fun c ->
                  plan
                    (Workloads.vnet_client ~my_mac:(mac (1 + backends + c)) ~lb_mac:(mac 0)
                       ~peers:(n_ports - 1) ~requests:reqs.(i) ~batch
                       ~gap:(if heavy i then heavy_gap else light_gap)))) ))
  in
  let spec name setup = P.spec ~pv:true ~engine:Engine.Block ~name setup in
  let mk_vms i =
    [ spec "lb" lb_setup ]
    @ List.mapi (fun b s -> spec (Printf.sprintf "backend%d" b) s) backend_setups
    @ List.mapi (fun c s -> spec (Printf.sprintf "client%d" c) s) client_setups.(i)
  in
  let st =
    Array.init cells (fun _ ->
        {
          lat = samples ();
          req_in = 0;
          first_req = Int64.max_int;
          last_req = 0L;
          tick_s = 0.;
          ticks = 0;
          fabric = None;
        })
  in
  let wire i hyp =
    let c = st.(i) in
    let ports =
      Array.init n_ports (fun _ -> Link.create ~bytes_per_cycle:1.0 ~latency_cycles:200 ())
    in
    let sw = Switch.create ports in
    Array.iteri (fun p _ -> Switch.learn sw ~mac:(mac p) ~port:p) ports;
    Switch.set_snoop sw
      (Some
         (fun port now frame ->
           if String.length frame >= 48 then
             match String.get_int64_le frame 16 with
             | 1L when port = 0 ->
                 c.req_in <- c.req_in + 1;
                 if now < c.first_req then c.first_req <- now;
                 if now > c.last_req then c.last_req <- now
             | 2L when port > backends ->
                 push c.lat (Int64.to_float (Int64.sub now (String.get_int64_le frame 32)))
             | _ -> ()));
    Hypervisor.add_ticker hyp
      (if traced then (fun now ->
         let t = clock () in
         Switch.tick sw now;
         c.tick_s <- c.tick_s +. (clock () -. t);
         c.ticks <- c.ticks + 1)
       else Switch.tick sw);
    Hypervisor.add_event_source hyp (fun () -> Switch.next_event sw);
    List.iteri
      (fun p vm -> ignore (Vm.attach_vnet vm ~link:ports.(p) ~endpoint:`A))
      hyp.Hypervisor.vms;
    c.fabric <- Some (sw, ports)
  in
  (* A cap far above the slowest (light) client's need; cells retire
     as soon as their clients have halted and every reply has crossed
     the switch, so the cap only bounds a run that loses replies. *)
  let rounds =
    let light_cyc = Array.fold_left max 0 reqs / batch * light_gap * 10 in
    8 + (3 * light_cyc / Int64.to_int net_quantum)
  in
  let cfg = P.config ~quantum:net_quantum ~rounds ~seed ~hosts:cells ~wire ~mk_vms () in
  let fleet, init_s = timed (fun () -> P.init cfg) in
  let t1 = clock () in
  let round_ends = samples () in
  let on_round fleet ~round:_ =
    Array.iteri
      (fun i node ->
        let clients_halted =
          List.for_all
            (fun vm -> (not (String.starts_with ~prefix:"client" vm.Vm.name)) || Vm.halted vm)
            node.P.hyp.Hypervisor.vms
        in
        if node.P.alive && clients_halted && st.(i).lat.len = clients * reqs.(i) then
          P.set_alive node false)
      fleet.P.nodes;
    if traced then push round_ends (clock ())
  in
  P.run_fleet ~domains ~on_round fleet;
  let t2 = clock () in
  let vms = Array.to_list fleet.P.nodes |> List.concat_map (fun n -> n.P.hyp.Hypervisor.vms) in
  let acct = Acct.of_vms vms in
  let sent = ref 0 and kicks = ref 0 and drops = ref 0 and out = ref 0 in
  let undelivered = ref 0 in
  Array.iteri
    (fun i node ->
      let c = st.(i) in
      let sw, ports = Option.get c.fabric in
      gate (Switch.conserved sw) "net-rr: cell %d switch conservation violated" i;
      let requests = clients * reqs.(i) in
      gate (c.lat.len <= requests) "net-rr: cell %d has %d replies for %d requests" i
        c.lat.len requests;
      List.iteri
        (fun p vm ->
          match vm.Vm.vnet with
          | Some v ->
              sent := !sent + Virtio_net.frames_sent v;
              kicks := !kicks + Virtio_net.kicks v;
              if p > backends then
                undelivered :=
                  !undelivered + Virtio_net.backlog_length v + Link.in_flight ports.(p)
          | None -> gate false "net-rr: cell %d VM %d has no vnet" i p)
        node.P.hyp.Hypervisor.vms;
      out := !out + Switch.out_frames sw;
      drops :=
        !drops + Switch.drops sw + Array.fold_left (fun a l -> a + Link.wire_dropped l) 0 ports)
    fleet.P.nodes;
  let attempted = Array.fold_left (fun a r -> a + (clients * r)) 0 reqs in
  let merged cls =
    Array.concat
      (List.filter_map
         (fun i -> if heavy i = cls then Some (contents st.(i).lat) else None)
         (List.init cells Fun.id))
  in
  let light = merged false and heavy_s = merged true in
  let replies = Array.length light + Array.length heavy_s in
  List.iter
    (fun (cls, a) ->
      let n = Array.length a in
      let beyond = if n = 0 then 0 else Pstats.beyond ~n 99. in
      gate (beyond >= 10) "net-rr: %s p99 rests on %d samples beyond it (want >= 10)" cls beyond)
    [ ("light", light); ("heavy", heavy_s) ];
  let pct a p = Pstats.percentile a p /. 1000. in
  let sim =
    [
      ("lat_p50_kcyc", pct light 50.); ("lat_p99_kcyc", pct light 99.);
      ("lat_p50_kcyc_heavy", pct heavy_s 50.); ("lat_p99_kcyc_heavy", pct heavy_s 99.);
      ("lat_samples", float_of_int (Array.length light));
      ("lat_samples_heavy", float_of_int (Array.length heavy_s));
    ]
  in
  let offered cls =
    let rates =
      List.filter_map
        (fun i ->
          let c = st.(i) in
          if heavy i <> cls || c.req_in < 2 then None
          else
            Some
              (float_of_int (c.req_in - 1)
              /. (Int64.to_float (Int64.sub c.last_req c.first_req) /. 1e6)))
        (List.init cells Fun.id)
    in
    Pstats.ratio (List.fold_left ( +. ) 0. rates) (float_of_int (List.length rates))
  in
  let fingerprint =
    String.concat "\n"
      ([ P.report fleet; Acct.fingerprint acct;
         Printf.sprintf "sent=%d kicks=%d drops=%d out=%d undelivered=%d" !sent !kicks !drops
           !out !undelivered ]
      @ Array.to_list
          (Array.map
             (fun c ->
               Printf.sprintf "req_in=%d %Ld..%Ld lat=%s" c.req_in c.first_req c.last_req
                 (String.concat "," (Array.to_list (Array.map string_of_float (contents c.lat)))))
             st))
  in
  let layers =
    if not traced then []
    else
      let round_ms =
        let e = contents round_ends in
        Array.init (Array.length e) (fun k ->
            1000. *. (e.(k) -. if k = 0 then t1 else e.(k - 1)))
      in
      [
        ("devices.switch_tick_s", Array.fold_left (fun a c -> a +. c.tick_s) 0. st);
        ("devices.switch_ticks", float_of_int (Array.fold_left (fun a c -> a + c.ticks) 0 st));
        ("devices.frames_out", float_of_int !out);
        ("devices.frames_per_kick", Pstats.ratio (float_of_int !sent) (float_of_int !kicks));
        ("devices.drops", float_of_int !drops);
        ("devices.undelivered", float_of_int !undelivered);
        ("guests.offered_req_per_mcyc", offered false);
        ("guests.offered_req_per_mcyc_heavy", offered true);
        ("guests.images_s", images_s);
        ("cluster.init_s", init_s);
        ("cluster.rounds", float_of_int (Array.length round_ms));
        ("cluster.round_ms_p50", if round_ms = [||] then 0. else Pstats.percentile round_ms 50.);
        ("cluster.round_ms_p99", if round_ms = [||] then 0. else Pstats.percentile round_ms 99.);
      ]
      @ sim @ machine_layers acct @ vmm_layers acct ~ops:replies
  in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t1;
    acct;
    ops = replies;
    attempted;
    failed = attempted - replies;
    sim;
    fingerprint;
    layers;
  }

(* ---------------- cluster-ckpt ---------------- *)

let cl_hosts = 6
let cl_rounds = 24

(* The kill and drain victims are drawn from the seed; hosts are
   interchangeable, so the amount of work barely depends on the draw. *)
let cluster_schedule ~seed =
  let rng = Rng.create ~seed in
  let kill = Rng.int rng cl_hosts in
  let drain = (kill + 1 + Rng.int rng (cl_hosts - 1)) mod cl_hosts in
  ([ (10, kill) ], [ (14, drain) ])

(* [key=value] fields of the control plane's report lines. *)
let field line key =
  let prefix = key ^ "=" in
  let tok = List.find (String.starts_with ~prefix) (String.split_on_char ' ' line) in
  float_of_string (String.sub tok (String.length prefix) (String.length tok - String.length prefix))

let report_line report prefix =
  List.find (String.starts_with ~prefix) (String.split_on_char '\n' report)

let cluster_pass ~seed ~traced =
  let t0 = clock () in
  let nvms = 2 * cl_hosts in
  let names = List.init nvms (Printf.sprintf "vm%02d") in
  let kills, drains = cluster_schedule ~seed in
  (* each VM's dirty-loop pacing is drawn from the seed *)
  let setups, images_s =
    let rng = Rng.create ~seed in
    timed (fun () ->
        List.map
          (fun _ ->
            Images.plan ~heap_pages:16
              ~user:(Workloads.dirty_loop ~pages:8 ~delay:(jitter rng 1500))
              ())
          names)
  in
  let prio i = match i mod 3 with 0 -> C.High | 1 -> C.Normal | _ -> C.Low in
  (* the first four VMs form an anti-affinity group, as in velum cluster *)
  let workload =
    List.mapi
      (fun i (name, setup) ->
        C.desc ~prio:(prio i) ?group:(if i < 4 then Some 0 else None) ~name setup)
      (List.combine names setups)
  in
  let frames = (List.hd setups).Images.frames in
  let cfg =
    C.config ~rounds:cl_rounds ~seed ~cap_units:(3 * frames) ~headroom:frames ~checkpoint_every:4 ~kills ~drains ~hosts:cl_hosts ~workload
      ()
  in
  let t1 = clock () in
  let res = C.run ~domains:1 cfg in
  let t2 = clock () in
  let m = C.metrics res.C.control in
  let store = report_line res.C.report "store " in
  gate (m.C.split_brain = 0) "cluster-ckpt: split brain %d" m.C.split_brain;
  gate (field store "torn" = 0.) "cluster-ckpt: torn commits";
  let placed =
    List.filter
      (fun n -> match C.entry_state res.C.control ~name:n with Some (C.Placed _) -> true | _ -> false)
      names
  in
  gate (List.length placed = nvms) "cluster-ckpt: %d of %d VMs placed" (List.length placed) nvms;
  let fleet = C.fleet res.C.control in
  let vms =
    Array.to_list fleet.P.nodes |> List.concat_map (fun n -> n.P.hyp.Hypervisor.vms)
  in
  let acct = Acct.of_vms vms in
  let up =
    List.fold_left
      (fun a l -> if String.starts_with ~prefix:"vm " l then a + int_of_float (field l "up") else a)
      0
      (String.split_on_char '\n' res.C.report)
  in
  let sim = [ ("availability", m.C.availability) ] in
  let layers =
    if not traced then []
    else
      (* Replay the store's write path on the final images: capture, a
         first commit into an empty store, then an unchanged re-commit
         (all chunks dedup). *)
      let live = List.filter (fun vm -> not (Vm.halted vm)) vms in
      let n = float_of_int (max 1 (List.length live)) in
      let cap = ref 0. and com = ref 0. and recom = ref 0. in
      let image_bytes =
        List.fold_left (fun a vm -> max a ((Vm.mem_frames vm + 8) * 4096)) 4096 live
      in
      let st =
        Store.create ~sectors:(Store.fleet_sectors_for ~streams:(max 1 (List.length live)) ~image_bytes) ()
      in
      List.iter
        (fun vm ->
          let img, dc = timed (fun () -> Snapshot.capture vm) in
          let r1, d1 = timed (fun () -> Store.commit ~id:vm.Vm.name st img) in
          let r2, d2 = timed (fun () -> Store.commit ~id:vm.Vm.name st img) in
          List.iter
            (function
              | Store.Committed _ -> ()
              | Store.Torn _ -> gate false "cluster-ckpt: replayed commit of %s torn" vm.Vm.name)
            [ r1; r2 ];
          cap := !cap +. dc;
          com := !com +. d1;
          recom := !recom +. d2)
        live;
      let det = C.detector res.C.control in
      [
        ("store.commits", field store "commits");
        ("store.logical_mb", field store "logical" /. 1e6);
        ("store.written_mb", field store "bytes_written" /. 1e6);
        ("store.chunks_live", field store "chunks_live");
        ("store.capture_ms", 1000. *. !cap /. n);
        ("store.commit_ms", 1000. *. !com /. n);
        ("store.recommit_ms", 1000. *. !recom /. n);
        ("cluster.rounds", float_of_int cl_rounds);
        ("cluster.evacuated", float_of_int m.C.evacuated);
        ("cluster.mig_mb", float_of_int m.C.migration_bytes /. 1e6);
        ("cluster.hb_bytes", float_of_int (Velum_cluster.Detector.spoke_bytes det));
        ("guests.images_s", images_s);
      ]
      @ sim @ machine_layers acct @ vmm_layers acct ~ops:up
  in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t1;
    acct;
    ops = up;
    attempted = nvms;
    failed = 0;
    sim;
    fingerprint = res.C.report ^ Acct.fingerprint acct;
    layers;
  }

(* ---------------- GC observation ---------------- *)

(* Runtime-phase spans from the stdlib's Runtime_events ring, consumed
   in-process.  A pause is a top-level runtime span on one domain
   (nested phases are inside it); waiting on a condition is not a
   pause. *)
module Gc_pauses = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    depth : (int, int * int64) Hashtbl.t;  (** ring -> depth, start ns *)
    mutable total_ns : int64;
    mutable max_ns : int64;
    mutable lost : int;
  }

  let counts = function
    | Runtime_events.EV_DOMAIN_CONDITION_WAIT | EV_DOMAIN_RESIZE_HEAP_RESERVATION -> false
    | _ -> true

  let start () =
    Runtime_events.start ();
    let rec t =
      lazy
        {
          cursor = Runtime_events.create_cursor None;
          callbacks =
            Runtime_events.Callbacks.create
              ~runtime_begin:(fun ring ts ph ->
                let t = Lazy.force t in
                if counts ph then
                  let d, s = Option.value (Hashtbl.find_opt t.depth ring) ~default:(0, 0L) in
                  Hashtbl.replace t.depth ring
                    (d + 1, if d = 0 then Runtime_events.Timestamp.to_int64 ts else s))
              ~runtime_end:(fun ring ts ph ->
                let t = Lazy.force t in
                if counts ph then
                  match Hashtbl.find_opt t.depth ring with
                  | Some (1, s) ->
                      let dt = Int64.sub (Runtime_events.Timestamp.to_int64 ts) s in
                      t.total_ns <- Int64.add t.total_ns dt;
                      if dt > t.max_ns then t.max_ns <- dt;
                      Hashtbl.replace t.depth ring (0, 0L)
                  | Some (d, s) when d > 1 -> Hashtbl.replace t.depth ring (d - 1, s)
                  | _ -> ())
              ~lost_events:(fun _ n ->
                let t = Lazy.force t in
                t.lost <- t.lost + n)
              ();
          depth = Hashtbl.create 4;
          total_ns = 0L;
          max_ns = 0L;
          lost = 0;
        }
    in
    Lazy.force t

  (* Set while the ring is being read, so a timer poll that lands inside
     an explicit one does not re-enter the cursor. *)
  let polling = ref false

  let poll t =
    if not !polling then begin
      polling := true;
      Fun.protect
        ~finally:(fun () -> polling := false)
        (fun () -> ignore (Runtime_events.read_poll t.cursor t.callbacks None))
    end

  (* The ring is small (run.py keeps its file under 16 MiB), so it is
     drained every [period] seconds from a SIGALRM handler, which runs at
     the main domain's next safe point: Control.run offers no hook of its
     own to poll from. *)
  let period = 0.005

  let with_timer t f =
    let set v =
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })
    in
    let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> poll t)) in
    set period;
    Fun.protect
      ~finally:(fun () ->
        set 0.;
        Sys.set_signal Sys.sigalrm prev)
      f

  (* Drop what has been recorded so far: the next totals cover only what
     follows. *)
  let reset t =
    poll t;
    t.total_ns <- 0L;
    t.max_ns <- 0L;
    t.lost <- 0
end

(* ---------------- measurement loop ---------------- *)

let run_workload ~workload ~seed ~domains ~traced =
  match workload with
  | "compute" -> compute_pass ~seed ~traced
  | "net-rr" -> net_pass ~seed ~domains ~traced ()
  | "cluster-ckpt" -> cluster_pass ~seed ~traced
  | w -> invalid_arg ("unknown workload " ^ w)

let median_of f passes = Pstats.median (Array.of_list (List.map f passes))

(* Passes until [seconds] have elapsed, at least [min_passes]. *)
let measure ~seconds ~min_passes f =
  let stop = clock () +. seconds in
  let rec go acc n =
    if n >= min_passes && clock () >= stop then List.rev acc else go (f () :: acc) (n + 1)
  in
  go [] 0

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed body

let bench ~workload ~seed ~seconds ~traced =
  (* warm-up pass: caches, lazily built tables, and the reference for
     determinism *)
  Gc.compact ();
  let reference = run_workload ~workload ~seed ~domains:1 ~traced:false in
  (* the heap's high-water mark after one pass in a fresh process: the
     later passes run on a heap the earlier ones grew, so their peaks
     creep with the number of passes that fit in [seconds] *)
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let check p =
    gate (p.fingerprint = reference.fingerprint)
      "%s: simulated results differ between passes%s" workload
      (if workload = "net-rr" then " (or between 1 and 2 domains)" else "");
    List.iter
      (fun (k, v) ->
        gate (Float.is_finite v) "%s: metric %s is not finite" workload k)
      (p.sim @ p.layers);
    p
  in
  (* every pass starts from a compacted heap, so one pass's garbage does
     not tax the next and passes measure alike *)
  let pass traced () =
    Gc.compact ();
    check (run_workload ~workload ~seed ~domains:1 ~traced)
  in
  let untraced =
    measure ~seconds:(if traced then seconds /. 2. else seconds) ~min_passes:3 (pass false)
  in
  let traced_passes =
    if not traced then []
    else begin
      let gp = Gc_pauses.start () in
      Gc_pauses.with_timer gp @@ fun () ->
      measure ~seconds:(seconds /. 2.) ~min_passes:3 (fun () ->
          Gc.compact ();
          Gc_pauses.reset gp;
          let g0 = Gc.quick_stat () in
          let p = check (run_workload ~workload ~seed ~domains:1 ~traced:true) in
          Gc_pauses.poll gp;
          let g1 = Gc.quick_stat () in
          let gc =
            [
              ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
              ("gc.promoted_mwords", (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
              ( "gc.minor_collections",
                float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
              ( "gc.major_collections",
                float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
              ("gc.pause_s", Int64.to_float gp.Gc_pauses.total_ns /. 1e9);
              ("gc.pause_max_ms", Int64.to_float gp.Gc_pauses.max_ns /. 1e6);
              ("gc.lost_events", float_of_int gp.Gc_pauses.lost);
            ]
          in
          { p with layers = gc @ p.layers })
    end
  in
  if workload = "net-rr" then
    ignore (check (run_workload ~workload ~seed ~domains:2 ~traced:false));
  let wall = median_of (fun p -> p.wall_s) untraced in
  let a = reference.acct in
  let e2e =
    [
      ("setup_s", median_of (fun p -> p.setup_s) untraced);
      ("wall_s", wall);
      ("guest_mips", median_of (fun p -> Int64.to_float p.acct.Acct.instret /. (p.wall_s *. 1e6)) untraced);
      ("req_per_s", median_of (fun p -> float_of_int p.ops /. p.wall_s) untraced);
      ("heap_peak_mb", heap_peak_mb);
      ("vmm_share", Acct.vmm_share a);
    ]
  in
  let all = untraced @ traced_passes in
  let attempted = List.fold_left (fun s p -> s + p.attempted) 0 all in
  let failed = List.fold_left (fun s p -> s + p.failed) 0 all in
  let layer_value name =
    match traced_passes with
    | [] -> 0.
    | _ -> (
        match name with
        | "trace.wall_s" -> median_of (fun p -> p.wall_s) traced_passes
        | "trace.untraced_wall_s" -> wall
        | "trace.overhead" -> median_of (fun p -> p.wall_s) traced_passes /. wall
        | _ ->
            median_of
              (fun p -> Option.value (List.assoc_opt name p.layers) ~default:0.)
              traced_passes)
  in
  let unit_of = List.assoc in
  Printf.printf "workload %s seed %Ld: %d untraced + %d traced passes\n" workload seed
    (List.length untraced) (List.length traced_passes);
  List.iter (fun (k, v) -> Printf.printf "  %-34s %14.6g %s\n" k v (unit_of k end_to_end)) e2e;
  List.iter
    (fun (k, v) -> Printf.printf "  %-34s %14.6g %s (simulated)\n" k v (unit_of k per_layer))
    reference.sim;
  Printf.printf "  operations: %d attempted, %d failed\n" attempted failed;
  Printf.printf "  simulated digest: %s\n" (Digest.to_hex (Digest.string reference.fingerprint));
  Printf.printf "  wall_s per pass: %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.4f" p.wall_s) untraced));
  if traced then begin
    let layers = List.map (fun (k, u) -> (k, u, layer_value k)) per_layer in
    List.iter (fun (k, u, v) -> Printf.printf "  %-34s %14.6g %s\n" k v u) layers;
    print_result ~attempted ~failed layers
  end
  else print_result ~attempted ~failed (List.map (fun (k, v) -> (k, unit_of k end_to_end, v)) e2e)

(* Light and heavy latency at the benchmark's request count and at twice
   it: below saturation, p50 barely moves when every client sends twice
   as many requests. *)
let saturation ~seed =
  let p50 scale =
    let p = net_pass ~requests_scale:scale ~seed ~domains:1 ~traced:false () in
    (List.assoc "lat_p50_kcyc" p.sim, List.assoc "lat_p50_kcyc_heavy" p.sim, p.failed)
  in
  let l1, h1, f1 = p50 1 and l2, h2, f2 = p50 2 in
  Printf.printf
    "p50 kcyc, requests x1 -> x2: light %.1f -> %.1f (%.3fx), heavy %.1f -> %.1f (%.3fx); \
     failed %d, %d\n"
    l1 l2 (l2 /. l1) h1 h2 (h2 /. h1) f1 f2;
  gate (l2 /. l1 < 1.25 && h2 /. h1 < 1.25) "net-rr: p50 grows with offered requests (saturated)"

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10. and trace = ref 0 in
  let sat = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "compute | net-rr | cluster-ckpt");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "input seed");
      ("--seconds", Arg.Set_float seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics");
      ("--saturation", Arg.Set sat, "check that net-rr's rates are below saturation");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 | --saturation --seed N";
  try
    if !sat then saturation ~seed:!seed
    else begin
      if not (List.mem !workload [ "compute"; "net-rr"; "cluster-ckpt" ]) then
        raise (Arg.Bad ("unknown workload " ^ !workload));
      bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
    end
  with
  | Gate msg ->
      prerr_endline ("perfbench: gate failed: " ^ msg);
      exit 1
  | Arg.Bad msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
