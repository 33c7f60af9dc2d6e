#!/bin/sh
# Tier-1 gate: build, full test suite, and (when ocamlformat is
# available) formatting.  Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

echo "== fault-matrix smoke (determinism under injected faults) =="
# Identical seeds must give byte-identical behaviour: any diff below is
# nondeterminism in the fault plan, the link, or the recovery layers.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

dune exec bin/velum.exe -- migrate --faults "seed=42,drop=0.05" >"$tmp/mig1.txt"
dune exec bin/velum.exe -- migrate --faults "seed=42,drop=0.05" >"$tmp/mig2.txt"
diff "$tmp/mig1.txt" "$tmp/mig2.txt" || {
  echo "FAIL: lossy migration diverged between identical-seed runs"; exit 1; }
grep -q "retransmits" "$tmp/mig1.txt" || {
  echo "FAIL: lossy migration reported no retransmit accounting"; exit 1; }

echo "== engine equivalence (interp vs block) =="
# The block engine must be observationally identical to the reference
# interpreter: same console bytes, same outcome, same guest/VMM cycles
# and retired-instruction counts, same per-kind exit accounting.  Only
# the engine-local statistics gauges (tlb.* / dtlb.* / engine.* lines)
# may differ — the block engine exists to skip redundant translations —
# so those are filtered out before the diff.  The virtualized legs run
# hot enough that the superblock trace tier kicks in (promotion
# threshold is a handful of dispatches), so this diff also certifies
# trace execution against the interpreter; the engine.trace.built gauge
# is checked below to prove traces really formed.
for w in hello spin syscalls memwalk pt-churn blk vblk; do
  for cfg in "--native" "--paging nested" "--paging shadow"; do
    for eng in interp block; do
      dune exec bin/velum.exe -- run -w "$w" -n 24 $cfg --engine "$eng" \
        >"$tmp/$w.$eng.raw.txt"
      grep -v -E '^(engine|tlb|dtlb)\.' <"$tmp/$w.$eng.raw.txt" >"$tmp/$w.$eng.txt"
    done
    diff "$tmp/$w.interp.txt" "$tmp/$w.block.txt" || {
      echo "FAIL: interp/block divergence on $w ($cfg)"; exit 1; }
    case "$w/$cfg" in
      spin/--paging*|syscalls/--paging*|memwalk/--paging*|pt-churn/--paging*)
        built=$(awk -F': ' '/^engine\.trace\.built/ { print $2 }' "$tmp/$w.block.raw.txt")
        [ "${built:-0}" -gt 0 ] || {
          echo "FAIL: no superblock traces formed on $w ($cfg)"; exit 1; }
        ;;
      *) ;;
    esac
  done
done

echo "== engine speedup gate (cpu-spin >= 8x, >= 60 MIPS) =="
# Re-measure the engine suite (it also re-asserts cycle/instret
# lockstep internally) and require the headline cpu-spin numbers with
# the superblock trace tier to hold; the committed BENCH_engine.json is
# restored afterwards so the gate never dirties the tree with
# machine-local wall-clock numbers.
cp BENCH_engine.json "$tmp/BENCH_engine.ref.json"
dune exec bench/main.exe -- --only ENGINE >"$tmp/engine_bench.txt"
spin=$(awk -F'"speedup": ' '/"name": "engine\/cpu-spin"/ { split($2, a, ","); print a[1] }' \
  BENCH_engine.json)
mips=$(awk -F'"block_mips": ' '/"name": "engine\/cpu-spin"/ { split($2, a, ","); print a[1] }' \
  BENCH_engine.json)
traces=$(awk -F'"trace_follows": ' '/"name": "engine\/cpu-spin"/ { split($2, a, ","); print a[1] }' \
  BENCH_engine.json)
cp "$tmp/BENCH_engine.ref.json" BENCH_engine.json
[ -n "$spin" ] || { echo "FAIL: no cpu-spin row in BENCH_engine.json"; exit 1; }
awk -v s="$spin" 'BEGIN { exit !(s + 0 >= 8.0) }' || {
  echo "FAIL: cpu-spin block-engine speedup $spin regressed below 8x"; exit 1; }
awk -v m="$mips" 'BEGIN { exit !(m + 0 >= 60.0) }' || {
  echo "FAIL: cpu-spin block-engine MIPS $mips regressed below 60"; exit 1; }
[ "${traces:-0}" -gt 0 ] || {
  echo "FAIL: cpu-spin bench ran without trace-tier dispatches"; exit 1; }
echo "cpu-spin block-engine speedup: ${spin}x at ${mips} MIPS (${traces} trace dispatches)"

cp BENCH_fault.json "$tmp/BENCH_fault.ref.json"
dune exec bench/main.exe -- --quick E16 >"$tmp/e16a.txt"
cp BENCH_fault.json "$tmp/BENCH_fault.a.json"
dune exec bench/main.exe -- --quick E16 >"$tmp/e16b.txt"
diff "$tmp/BENCH_fault.a.json" BENCH_fault.json || {
  echo "FAIL: BENCH_fault.json diverged between identical-seed runs"; exit 1; }
diff "$tmp/e16a.txt" "$tmp/e16b.txt" || {
  echo "FAIL: E16 output diverged between identical-seed runs"; exit 1; }
cp "$tmp/BENCH_fault.ref.json" BENCH_fault.json

echo "== crash-recovery matrix (EVERY power-failure offset) =="
# Cut the write stream at EVERY byte offset — of a delta commit and of
# a GC compaction — and verify each cut recovers the newest complete
# generation.  Synthetic patterned images keep the streams small enough
# to sweep exhaustively (stride 1); the commands exit nonzero on any
# torn, hybrid, or dangling-chunk recovery.
dune exec bin/velum.exe -- recover --sweep --pages 8 --stride 1 \
  >"$tmp/sweep_delta.txt" || {
  echo "FAIL: delta-commit crash sweep recovered a torn image"; exit 1; }
grep -q "0 failures" "$tmp/sweep_delta.txt" || {
  echo "FAIL: delta-commit crash sweep reported failures"; exit 1; }
dune exec bin/velum.exe -- recover --sweep --gc --pages 8 --stride 1 \
  >"$tmp/sweep_gc.txt" || {
  echo "FAIL: GC-compaction crash sweep lost a live generation"; exit 1; }
grep -q "0 failures" "$tmp/sweep_gc.txt" || {
  echo "FAIL: GC-compaction crash sweep reported failures"; exit 1; }

# A coarser lattice over a real VM snapshot delta keeps the end-to-end
# path (capture -> chunk -> commit -> recover) honest, and two
# identical-seed sweeps must report byte-identical results.
dune exec bin/velum.exe -- recover --sweep --stride 4099 >"$tmp/sweep1.txt" || {
  echo "FAIL: crash sweep recovered a torn image"; exit 1; }
dune exec bin/velum.exe -- recover --sweep --stride 4099 >"$tmp/sweep2.txt" || {
  echo "FAIL: crash sweep recovered a torn image"; exit 1; }
diff "$tmp/sweep1.txt" "$tmp/sweep2.txt" || {
  echo "FAIL: crash sweep diverged between identical runs"; exit 1; }
grep -q "0 failures" "$tmp/sweep1.txt" || {
  echo "FAIL: crash sweep reported failures"; exit 1; }

# Faulted supervised runs must also be deterministic end to end.
dune exec bin/velum.exe -- run -w spin --ha --faults "seed=7,store.torn=0.5" \
  >"$tmp/ha1.txt"
dune exec bin/velum.exe -- run -w spin --ha --faults "seed=7,store.torn=0.5" \
  >"$tmp/ha2.txt"
diff "$tmp/ha1.txt" "$tmp/ha2.txt" || {
  echo "FAIL: supervised run diverged between identical-seed runs"; exit 1; }

cp BENCH_ha.json "$tmp/BENCH_ha.ref.json"
dune exec bench/main.exe -- --quick E17 >"$tmp/e17a.txt"
cp BENCH_ha.json "$tmp/BENCH_ha.a.json"
dune exec bench/main.exe -- --quick E17 >"$tmp/e17b.txt"
diff "$tmp/BENCH_ha.a.json" BENCH_ha.json || {
  echo "FAIL: BENCH_ha.json diverged between identical-seed runs"; exit 1; }
diff "$tmp/e17a.txt" "$tmp/e17b.txt" || {
  echo "FAIL: E17 output diverged between identical-seed runs"; exit 1; }
cp "$tmp/BENCH_ha.ref.json" BENCH_ha.json

# The --quick runs above regenerate only a subset of E17, so they never
# check the committed file.  BENCH_ha.json is all simulated figures (no
# wall clock): the full regeneration must match the committed copy byte
# for byte, which pins the checkpoint results of the HA supervisor.
dune exec bench/main.exe -- --only E17 >"$tmp/e17.txt"
diff "$tmp/BENCH_ha.ref.json" BENCH_ha.json || {
  echo "FAIL: BENCH_ha.json diverged from the committed copy"; exit 1; }

# The committed BENCH_ha.json must carry the incremental-store columns
# and show a checkpoint pause tax under 20% at the 100k-cycle cadence —
# the delta commits are the point of the content-addressed store.
grep -q '"name": "ha/crash_sweep_gc"' BENCH_ha.json || {
  echo "FAIL: BENCH_ha.json missing the GC crash-sweep row"; exit 1; }
grep -q '"dedup_ratio"' BENCH_ha.json || {
  echo "FAIL: BENCH_ha.json missing the dedup_ratio column"; exit 1; }
grep -q '"bytes_written"' BENCH_ha.json || {
  echo "FAIL: BENCH_ha.json missing the bytes_written column"; exit 1; }
overhead=$(awk -F'"checkpoint_overhead": ' '/"name": "ha\/supervisor\/cadence_100000"/ \
  { split($2, a, "}"); print a[1] }' BENCH_ha.json)
[ -n "$overhead" ] || {
  echo "FAIL: BENCH_ha.json missing the cadence_100000 row"; exit 1; }
awk -v o="$overhead" 'BEGIN { exit !(o + 0 < 0.20) }' || {
  echo "FAIL: cadence_100000 checkpoint overhead $overhead >= 0.20"; exit 1; }
echo "cadence_100000 checkpoint overhead: $overhead"

# E22's BENCH_store.json is all deterministic byte counts (no wall
# clock), so the regenerated file must match the committed one exactly.
cp BENCH_store.json "$tmp/BENCH_store.ref.json"
dune exec bench/main.exe -- --only E22 >"$tmp/e22.txt"
diff "$tmp/BENCH_store.ref.json" BENCH_store.json || {
  echo "FAIL: BENCH_store.json diverged from the committed copy"; exit 1; }

echo "== trace determinism and zero-overhead gate =="
# Tracing is host-side observation only: two identical seeded runs must
# export byte-identical JSONL, and a traced run must print exactly the
# same simulated results (cycles, exits, console) as an untraced one.
dune exec bin/velum.exe -- run -w syscalls -n 64 --trace="$tmp/t1.jsonl" \
  >"$tmp/traced1.txt"
dune exec bin/velum.exe -- run -w syscalls -n 64 --trace="$tmp/t2.jsonl" \
  >"$tmp/traced2.txt"
diff "$tmp/t1.jsonl" "$tmp/t2.jsonl" || {
  echo "FAIL: trace export diverged between identical-seed runs"; exit 1; }
dune exec bin/velum.exe -- run -w syscalls -n 64 >"$tmp/untraced.txt"
grep -v '^trace:' "$tmp/traced1.txt" >"$tmp/traced1.filtered.txt"
diff "$tmp/untraced.txt" "$tmp/traced1.filtered.txt" || {
  echo "FAIL: tracing changed simulated behaviour (cycles or exits)"; exit 1; }
dune exec bin/velum.exe -- trace "$tmp/t1.jsonl" >"$tmp/report.txt"
grep -q "cycle attribution" "$tmp/report.txt" || {
  echo "FAIL: trace report missing attribution table"; exit 1; }
grep -q "p99" "$tmp/report.txt" || {
  echo "FAIL: trace report missing latency percentiles"; exit 1; }

echo "== parallel hosts: domain-count invariance (round barrier) =="
# The acceptance gate for the cluster runner: a 4-host fleet executed on
# 4 domains must print a byte-identical report (simulated cycles, exits,
# monitor counters, heartbeats, link state) to the same fleet on 1
# domain, and per-host trace exports must match byte for byte.
dune exec bin/velum.exe -- run -w syscalls -n 200 --hosts 4 --domains 1 \
  --rounds 6 --trace "$tmp/par1.jsonl" >"$tmp/par1.txt"
dune exec bin/velum.exe -- run -w syscalls -n 200 --hosts 4 --domains 4 \
  --rounds 6 --trace "$tmp/par4.jsonl" >"$tmp/par4.txt"
diff "$tmp/par1.txt" "$tmp/par4.txt" || {
  echo "FAIL: fleet report diverged between 1 and 4 domains"; exit 1; }
for i in 0 1 2 3; do
  diff "$tmp/par1.jsonl.$i" "$tmp/par4.jsonl.$i" || {
    echo "FAIL: host $i trace export diverged between 1 and 4 domains"; exit 1; }
done
grep -q "hb_sent" "$tmp/par1.txt" || {
  echo "FAIL: fleet report carries no heartbeat accounting"; exit 1; }

# And under chaos: faults on every link, a mid-run host failure and
# periodic live migrations at the barrier must stay domain-invariant.
chaos="--hosts 4 --rounds 8 --migrate-every 3 --fail-host 4,2 \
  --faults seed=9,drop=0.1,corrupt=0.05,hb.loss=0.2 --seed 31"
dune exec bin/velum.exe -- run -w dirty -n 16 $chaos --domains 1 >"$tmp/chaos1.txt"
dune exec bin/velum.exe -- run -w dirty -n 16 $chaos --domains 4 >"$tmp/chaos4.txt"
diff "$tmp/chaos1.txt" "$tmp/chaos4.txt" || {
  echo "FAIL: chaotic fleet diverged between 1 and 4 domains"; exit 1; }
grep -q "pred_dead=round" "$tmp/chaos1.txt" || {
  echo "FAIL: injected host failure was never detected"; exit 1; }
grep -q "migrations=" "$tmp/chaos1.txt" || {
  echo "FAIL: fleet report carries no migration accounting"; exit 1; }

# BENCH_par.json is regenerated by 'bench/main.exe --only E19' (wall
# clock is machine-local, so the committed file is not re-checked for
# equality — only for shape).
grep -q '"name": "par/domains-4"' BENCH_par.json || {
  echo "FAIL: BENCH_par.json missing the 4-domain row"; exit 1; }

echo "== cluster control plane: chaos determinism and availability gate =="
# The self-healing control plane under scripted chaos — two host kills,
# a rolling drain, an overload burst, plus heartbeat/evacuation/drain
# faults — must print a byte-identical report at 4 domains vs 1, keep
# fleet availability >= 0.95, and record zero split-brain epochs.
cchaos="--hosts 16 --kill 5,1 --kill 8,9 --burst 6 --drain 12,3 --rounds 24 \
  --seed 11 --faults seed=7,cluster.hb=0.05,cluster.evac=0.1,cluster.drain=0.1,drop=0.02"
dune exec bin/velum.exe -- cluster $cchaos --domains 1 >"$tmp/cluster1.txt"
dune exec bin/velum.exe -- cluster $cchaos --domains 4 >"$tmp/cluster4.txt"
diff "$tmp/cluster1.txt" "$tmp/cluster4.txt" || {
  echo "FAIL: cluster report diverged between 1 and 4 domains"; exit 1; }
avail=$(sed -n 's/^metrics availability=\([0-9.]*\).*/\1/p' "$tmp/cluster1.txt")
[ -n "$avail" ] || { echo "FAIL: cluster report carries no availability metric"; exit 1; }
awk -v a="$avail" 'BEGIN { exit !(a + 0 >= 0.95) }' || {
  echo "FAIL: fleet availability $avail below the 0.95 gate"; exit 1; }
echo "fleet availability under chaos: $avail"
grep -q "split_brain=0" "$tmp/cluster1.txt" || {
  echo "FAIL: split-brain epoch observed"; exit 1; }
grep -q "state=shed" "$tmp/cluster1.txt" || {
  echo "FAIL: overload burst shed nothing"; exit 1; }

# E20's BENCH_cluster.json is all simulated metrics (no wall clock), so
# the regenerated file must be byte-identical to the committed one.
cp BENCH_cluster.json "$tmp/BENCH_cluster.ref.json"
dune exec bench/main.exe -- --only E20 >"$tmp/e20.txt"
diff "$tmp/BENCH_cluster.ref.json" BENCH_cluster.json || {
  echo "FAIL: BENCH_cluster.json diverged from the committed copy"; exit 1; }

echo "== network fabric: domain invariance, tail latency, conservation =="
# A switched virtio-net fleet (LB fan-out over backends, open-loop
# clients) under link faults must print a byte-identical report and
# per-host latency digest at 4 domains vs 1.  'velum net' fails hard on
# any conservation violation, so a clean diff also certifies that every
# frame landed in a named counter on both runs.
nfab="--hosts 2 --requests 16 \
  --faults seed=9,drop=0.02,corrupt=0.01,delay=0.05,dup=0.01"
dune exec bin/velum.exe -- net $nfab --domains 1 >"$tmp/net1.txt"
dune exec bin/velum.exe -- net $nfab --domains 4 >"$tmp/net4.txt"
diff "$tmp/net1.txt" "$tmp/net4.txt" || {
  echo "FAIL: net fabric diverged between 1 and 4 domains"; exit 1; }
p50=$(sed -n 's/^fabric: .*p50=\([0-9.]*\).*/\1/p' "$tmp/net1.txt")
p99=$(sed -n 's/^fabric: .*p99=\([0-9.]*\).*/\1/p' "$tmp/net1.txt")
[ -n "$p99" ] || { echo "FAIL: net fabric printed no p99"; exit 1; }
awk -v a="$p50" -v b="$p99" 'BEGIN { exit !(b + 0 >= a + 0 && b + 0 > 0) }' || {
  echo "FAIL: nonsensical fabric percentiles (p50=$p50 p99=$p99)"; exit 1; }
echo "fabric p99 under link faults: $p99 cycles"
grep -q "net.kicks" "$tmp/net1.txt" || {
  echo "FAIL: fleet report carries no net.* gauges"; exit 1; }

# E23's BENCH_net.json is all simulated counters and percentiles (no
# wall clock), so the regenerated file must match the committed copy
# byte for byte; E23 itself asserts 1-vs-4-domain byte identity, frame
# conservation, and reply completeness across a mid-benchmark live
# migration of a backend.
cp BENCH_net.json "$tmp/BENCH_net.ref.json"
dune exec bench/main.exe -- --only E23 >"$tmp/e23.txt"
diff "$tmp/BENCH_net.ref.json" BENCH_net.json || {
  echo "FAIL: BENCH_net.json diverged from the committed copy"; exit 1; }

echo "CI gate passed."
