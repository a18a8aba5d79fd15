"""The repository benchmark: one command, two workloads, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload map_reads --seed 1 --seconds 50 --trace 0
    python3 perfbench/compare.py perfbench/results/before perfbench/results/after

``--trace 0`` runs the workload with tracing off and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the traced
composition of :mod:`layers` and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same numbers for a reader, with the seed and host provenance.  A run whose
outputs differ from their oracle exits non-zero and prints no result.  Each run
also appends its full record (metrics, sample counts, seed, host cores,
Python version, git sha) to ``perfbench/results/<workload>.jsonl``, which
``compare.py`` reads.

This process only orchestrates.  The workload runs in a child interpreter
that prints ``PERFBENCH-READY`` once its system is built and warm; the time
from starting that child to the line is one set-up sample, less the time
the child spent generating its inputs.  ``setup_s`` is the median of
``SETUP_REPEATS`` such samples: all but the last child only set up and
exit.  The program comes from ``src/`` next to this directory; without it
the child cannot import it and the run fails without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT"
SETUP_REPEATS = 3
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 160
WORKLOAD_NAMES = ("map_reads", "search_pool")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--role", choices=("main", "setup", "run", "first-call"), default="main",
        help=argparse.SUPPRESS,
    )
    args = p.parse_args(argv)
    if args.role != "first-call" and args.workload is None:
        p.error("--workload is required")
    return args


# -- child side ------------------------------------------------------------------
def _import_program() -> None:
    """Import the program before any timing that excludes input generation."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.engine  # noqa: F401
    import repro.mapping  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.search  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.shard  # noqa: F401
    import repro.workloads  # noqa: F401


def child(args) -> int:
    from measure import CheckFailed

    _import_program()
    if args.role == "first-call":
        import layers

        print(json.dumps(layers.first_call(args.seed)), flush=True)
        return 0

    import workloads

    t0 = time.perf_counter()
    w = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    inputs_s = time.perf_counter() - t0
    try:
        w.setup()
        print(READY, repr(inputs_s), flush=True)
        if args.role == "setup":
            return 0
        if args.trace:
            import layers

            res = layers.trace(w, args.seconds)
        else:
            res = w.run()
    except CheckFailed as exc:
        print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr, flush=True)
        return 1
    finally:
        w.close()
    payload = {
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: [v, u] for k, (v, u) in res.metrics.items()},
        "info": res.info,
    }
    print(RESULT, json.dumps(payload), flush=True)
    return 0


# -- orchestrator side -------------------------------------------------------------
def spawn(args, role: str) -> tuple:
    """Run one child; returns (set-up seconds, its result payload or None)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.perf_counter()
    # A session of its own, so a hung child is killed with its pool workers.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, bufsize=1, start_new_session=True
    )

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill_group)
    watchdog.start()
    setup_s, payload = None, None
    try:
        for line in proc.stdout:
            if line.startswith(READY):
                setup_s = time.perf_counter() - t0 - float(line.split()[1])
            elif line.startswith(RESULT):
                payload = json.loads(line[len(RESULT) :])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise SystemExit(f"perfbench: {role} child exited with code {code}")
    if setup_s is None:
        raise SystemExit(f"perfbench: {role} child never reported ready")
    return setup_s, payload


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def orchestrate(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program source under {ROOT / 'src'}")
    samples = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            samples.append(spawn(args, "setup")[0])
    setup_s, payload = spawn(args, "run")
    samples.append(setup_s)
    if payload is None:
        raise SystemExit("perfbench: run child reported no result")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in payload["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    record = {
        "provenance": provenance(args),
        "correct": True,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
        "setup_samples_s": samples if not args.trace else [],
        "info": payload["info"],
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"perfbench: {json.dumps(record['provenance'])}")
    shown = {k: v for k, v in record["info"].items() if k != "walls_s"}
    print(f"perfbench: info {json.dumps(shown)}")
    print(
        f"perfbench: {args.workload} attempted={payload['attempted']} "
        f"failed={payload['failed']}"
    )
    for name, m in metrics.items():
        print(f"perfbench:   {name:26s} {m['value']:14.6g} {m['unit']}")
    info = payload["info"]
    for level in ("lo", "hi"):
        if f"p99_ms_{level}" in info:
            print(
                f"perfbench:   p99_ms_{level:20s} {info[f'p99_ms_{level}']:14.6g} ms"
                f" (unbounded; {info[f'samples_{level}']} samples)"
            )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": payload["attempted"],
                "failed": payload["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "main":
        return orchestrate(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
