#!/usr/bin/env python3
"""Benchmark entry point; run it from the root of a source checkout.

    python3 perfbench/run.py --workload adapt-inproc --seed 1 --seconds 20 --trace 0

--workload is one of adapt-inproc, alert-tcp, design-deploy, or `all`,
which runs each in a process of its own. --trace 1 makes the traced run:
it reports the per-layer metrics instead of the end-to-end ones and writes
its spans to perfbench/out/. The last line on stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; a summary goes to
stderr. The program is imported from ./src and nowhere else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MODULES = {
    "adapt-inproc": "wl_adapt_inproc",
    "alert-tcp": "wl_alert_tcp",
    "design-deploy": "wl_design_deploy",
}
SUBPROCESS_TIMEOUT_S = 600


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*MODULES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Put ./src first on the path and make sure threatflow comes from it."""
    src = ROOT / "src"
    if not (src / "threatflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no threatflow sources under {src}")
    sys.path.insert(0, str(src))
    import threatflow

    if not Path(threatflow.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: threatflow was imported from {threatflow.__file__}, not {src}")


def measure(workload, seconds: float, rec, tracer) -> None:
    """Run the workload's rounds, traced when a tracer is given; a failure
    of the program or of the benchmark is recorded as a failed check."""
    from harness import run_rounds

    if tracer is not None:
        tracer.install()
    try:
        run_rounds(workload.run_round, seconds, workload.size.min_rounds, rec)
    except Exception:
        rec.check(False, "the run raised:\n" + traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_one(name: str, seed: int, seconds: float, tracing: bool) -> dict:
    from harness import Recorder
    from tracing import Tracer

    # One CPU for every thread of the run: on two vCPUs the bus threads'
    # cross-CPU handoffs more than double the TCP latency and make it swing
    # from run to run (README, "Reference figures").
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    module = importlib.import_module(MODULES[name])
    rec = Recorder(tracing)
    tracer = Tracer(rec) if tracing else None
    measure(module.Workload(seed, module.FULL), seconds, rec, tracer)
    print(f"{name}: {rec.rounds} rounds, {rec.attempted} ops attempted, {rec.failed} failed",
          file=sys.stderr)
    for problem in rec.problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not rec.problems and rec.attempted > 0
    if not correct:
        return {"correct": False, "attempted": max(rec.attempted, 1), "failed": rec.failed, "metrics": {}}
    if tracer is not None:
        summary = tracer.summary()
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path, summary)
        print(f"{name}: spans written to {trace_path}", file=sys.stderr)
        metrics = tracer.metrics(summary)
    else:
        metrics = rec.end_to_end()
    return {"correct": True, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in a process of its own; metrics keyed workload/metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in MODULES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
            print(f"{name:14s} {metric:38s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
        print(f"{name:14s} {'attempted':38s} {result['attempted']:14d}", file=sys.stderr)
        print(f"{name:14s} {'failed':38s} {result['failed']:14d}", file=sys.stderr)
    return combined


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing seeded per process would add its own spread between runs
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    import_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
