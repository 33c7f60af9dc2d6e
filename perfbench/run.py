#!/usr/bin/env python3
"""Build Velum's benchmark from source and run one workload.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 20 --trace 0

Run from the repository root.  The build goes to .bench_build/ (dune, no
shared cache); every other argument is passed to the benchmark, whose
last stdout line is the JSON result.  Before it is printed, the metric
names and units in it are checked against BENCHMARK.json.  Exits non-zero,
printing no result, when the build, a correctness gate or that check
fails.
"""

import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(args):
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode)
    env = dict(os.environ)
    # Runtime events (traced runs only) write their ring next to the build.
    # The file holds a ring for each of the runtime's 128 possible domains,
    # so 2^14 words a ring keep it at 16 MiB; the benchmark drains it often.
    env["OCAML_RUNTIME_EVENTS_DIR"] = BUILD_DIR
    env["OCAMLRUNPARAM"] = ",".join(filter(None, [env.get("OCAMLRUNPARAM"), "e=14"]))
    proc = subprocess.Popen([EXE] + args, env=env, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    # the runtime leaves its ring file behind at exit
    ring = os.path.join(BUILD_DIR, f"{proc.pid}.events")
    if os.path.exists(ring):
        os.remove(ring)
    if proc.returncode < 0:
        sys.stdout.write(out)
        fail(f"benchmark killed by {signal.Signals(-proc.returncode).name}")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main(sys.argv[1:])
