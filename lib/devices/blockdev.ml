let sector_bytes = 512
let reg_cmd = 0x00L
let reg_sector = 0x08L
let reg_count = 0x10L
let reg_dma = 0x18L
let reg_status = 0x20L
let cmd_read = 1L
let cmd_write = 2L
let status_idle = 0L
let status_busy = 1L
let status_done = 2L
let status_error = 3L
let mmio_base = 0x4000_2000L

(* Default latency model: a fixed per-command overhead plus a per-byte
   streaming cost, in cycles. *)
let seek_cycles = 2_000
let cycles_per_byte = 2

type dma = {
  dma_read : int64 -> int -> Bytes.t option;
  dma_write : int64 -> Bytes.t -> bool;
}

type pending = { finish_at : int64; ok : bool }

type t = {
  store : Bytes.t;
  nsectors : int;
  dma : dma;
  mutable sector : int64;
  mutable count : int64;
  mutable dma_addr : int64;
  mutable status : int64;
  mutable pending : pending option;
  mutable irq : bool;
  mutable ops : int;
  mutable errors : int;
  mutable now : int64;
  mutable faults : Velum_util.Fault.t;
  mutable broken : bool; (* a permanent fault fired: fail everything *)
}

let create ?(sectors = 8192) dma =
  if sectors <= 0 then invalid_arg "Blockdev.create: sectors must be positive";
  {
    store = Bytes.make (sectors * sector_bytes) '\000';
    nsectors = sectors;
    dma;
    sector = 0L;
    count = 0L;
    dma_addr = 0L;
    status = status_idle;
    pending = None;
    irq = false;
    ops = 0;
    errors = 0;
    now = 0L;
    faults = Velum_util.Fault.none ();
    broken = false;
  }

let sectors t = t.nsectors
let set_faults t f = t.faults <- f
let error_count t = t.errors

let load t ~sector s =
  let off = sector * sector_bytes in
  if sector < 0 || off + String.length s > Bytes.length t.store then
    invalid_arg "Blockdev.load: out of range";
  Bytes.blit_string s 0 t.store off (String.length s)

let read_back t ~sector ~count =
  let off = sector * sector_bytes in
  let len = count * sector_bytes in
  if sector < 0 || count < 0 || off + len > Bytes.length t.store then
    invalid_arg "Blockdev.read_back: out of range";
  Bytes.sub_string t.store off len

(* Byte-addressed host-side access: the durable snapshot store writes
   records that straddle sector boundaries, and its power-failure model
   cuts a write at an arbitrary *byte*, so sector granularity would hide
   exactly the torn states it must exercise. *)
let pwrite t ~off b ~pos ~len =
  if off < 0 || pos < 0 || len < 0
     || pos + len > Bytes.length b
     || off + len > Bytes.length t.store
  then invalid_arg "Blockdev.pwrite: out of range";
  Bytes.blit b pos t.store off len

let pread t ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length t.store then
    invalid_arg "Blockdev.pread: out of range";
  Bytes.sub t.store off len

let equal_at t ~off b ~pos ~len = Velum_util.Bytes_eq.equal t.store off b pos len

let capacity_bytes t = Bytes.length t.store

let valid_range t =
  let s = Int64.to_int t.sector and c = Int64.to_int t.count in
  s >= 0 && c > 0 && s + c <= t.nsectors

let fail_now t =
  t.status <- status_error;
  t.errors <- t.errors + 1;
  t.irq <- true

(* Perform the data movement immediately; expose completion after the
   latency so guests observe an asynchronous device. *)
let start_command t cmd =
  if t.status = status_busy then ()
  else if cmd <> cmd_read && cmd <> cmd_write then
    (* Malformed command: reject immediately, no seek latency. *)
    fail_now t
  else if not (valid_range t) then fail_now t
  else begin
    let module F = Velum_util.Fault in
    if F.fire t.faults F.Blk_permanent ~now:t.now then t.broken <- true;
    let injected =
      if t.broken then begin
        F.observe t.faults F.Blk_permanent;
        true
      end
      else if F.fire t.faults F.Blk_transient ~now:t.now then begin
        F.observe t.faults F.Blk_transient;
        true
      end
      else false
    in
    let s = Int64.to_int t.sector and c = Int64.to_int t.count in
    let off = s * sector_bytes in
    let len = c * sector_bytes in
    let ok =
      if injected then false
      else if cmd = cmd_read then
        t.dma.dma_write t.dma_addr (Bytes.sub t.store off len)
      else begin
        match t.dma.dma_read t.dma_addr len with
        | Some b ->
            Bytes.blit b 0 t.store off len;
            true
        | None -> false
      end
    in
    let latency = seek_cycles + (len * cycles_per_byte) in
    t.status <- status_busy;
    t.pending <- Some { finish_at = Int64.add t.now (Int64.of_int latency); ok }
  end

let tick t now =
  (* ticks may arrive from lagging pCPUs: device time is monotonic *)
  if Int64.unsigned_compare now t.now > 0 then t.now <- now;
  match t.pending with
  | Some { finish_at; ok } when Int64.unsigned_compare t.now finish_at >= 0 ->
      t.pending <- None;
      t.status <- (if ok then status_done else status_error);
      if not ok then t.errors <- t.errors + 1;
      t.ops <- t.ops + 1;
      t.irq <- true
  | _ -> ()

let read_reg t off =
  if off = reg_status then begin
    let v = t.status in
    if t.status = status_done || t.status = status_error then begin
      t.status <- status_idle;
      t.irq <- false
    end;
    v
  end
  else if off = reg_sector then t.sector
  else if off = reg_count then t.count
  else if off = reg_dma then t.dma_addr
  else 0L

let write_reg t off v =
  if off = reg_cmd then start_command t v
  else if off = reg_sector then t.sector <- v
  else if off = reg_count then t.count <- v
  else if off = reg_dma then t.dma_addr <- v

let device ?(base = mmio_base) t =
  {
    Velum_machine.Bus.name = "blockdev";
    base;
    size = 0x100;
    read = (fun off _w -> read_reg t off);
    write = (fun off _w v -> write_reg t off v);
    tick = (fun now -> tick t now);
    pending_irq = (fun () -> t.irq);
  }

let completed_ops t = t.ops
let busy t = t.status = status_busy

let next_completion t =
  match t.pending with None -> None | Some { finish_at; _ } -> Some finish_at
