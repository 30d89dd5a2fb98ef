#!/usr/bin/env python3
"""Entry point of the wall-clock ledger benchmark (BENCHMARK.json "command").

    python3 bench/ledger/run.py --workload step_loop --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds bench/ledger into build-bench/ (Release)
unless the build is up to date, then runs one workload:

  --trace 0   build-bench/mitos_bench: end-to-end metrics, tracing off
  --trace 1   build-bench/mitos_bench_traced: per-layer metrics

The binary's "name value unit" lines pass through to stdout. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; metrics holds exactly the metrics BENCHMARK.json lists for the mode
(end_to_end or per_layer). Exit codes: 0 outputs correct, 1 wrong outputs
(the result line is still printed), 2 build or infrastructure error (no
result line). Every child runs in its own process group and is killed on
timeout; temporary files stay under build-bench/.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LEDGER = ROOT / "bench" / "ledger"
BUILD = ROOT / "build-bench"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
BINARIES = {0: "mitos_bench", 1: "mitos_bench_traced"}


class InfraError(Exception):
    pass


def terminate(signum, frame):
    """SIGTERM/SIGINT: unwind through run(), which kills the child group."""
    raise SystemExit(2)


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it to end."""
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    proc = subprocess.Popen(cmd, start_new_session=True, env=env, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            raise InfraError(f"{cmd[0]} did not finish within {timeout} s")
        raise InfraError(f"{cmd[0]} interrupted")


def build():
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run(["cmake", "-S", str(LEDGER), "-B", str(BUILD),
                "-DCMAKE_BUILD_TYPE=Release", *generator],
               BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            raise InfraError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
            *BINARIES.values()], BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        raise InfraError("build failed")


def main():
    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise InfraError(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise InfraError(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    out = BUILD / f"result-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    code = run([str(BUILD / BINARIES[args.trace]),
                f"--workload={args.workload}", f"--seed={args.seed}",
                f"--seconds={args.seconds}", f"--out={out}"],
               RUN_TIMEOUT_S)
    if code not in (0, 1) or not out.exists():
        raise InfraError(f"{BINARIES[args.trace]} exited with code {code}")
    try:
        doc = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)

    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(
                got["value"], (int, float)) or not math.isfinite(got["value"]):
            raise InfraError(f"metric {m['name']} ({m['unit']}) not measured")
        metrics[m["name"]] = got
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except InfraError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
