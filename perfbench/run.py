#!/usr/bin/env python3
"""Benchmark of confcall_serve: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload single-call --seed 1 --seconds 15 --trace 0

Builds the daemon and the benchmark binaries from source (first run
only), runs the benchmark's self-test, then the untraced wire run
(--trace 0, end-to-end metrics) or the traced replay (--trace 1,
per-layer metrics). Prints a validity record, then one JSON result
object as the last line of stdout. Exits 1 when the build, the
self-test or any output check fails. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORKLOADS = ("single-call", "batch-64", "churn-observed")
TARGETS = ("confcall_serve", "perfbench_wire", "perfbench_replay", "perfbench_selftest")
RUN_TIMEOUT_S = 170


def build_dir():
    return REPO / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds once per checkout; later calls are no-ops."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *TARGETS])
        for step in steps:
            with open(log, "a") as sink:
                rc = subprocess.call(step, stdout=sink, stderr=subprocess.STDOUT)
            if rc != 0:
                if step[1] == "-S":
                    shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                    (out / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                return False
    selftest = subprocess.run([str(out / "perfbench_selftest")], capture_output=True,
                              text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        return False
    return True


def steal_ticks():
    """Host steal time of all CPUs, in clock ticks (/proc/stat)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def time_wait_sockets():
    """Sockets in TIME_WAIT (state 06) over IPv4 and IPv6."""
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as rows:
                next(rows, None)
                count += sum(1 for row in rows if row.split()[3:4] == ["06"])
        except OSError:
            pass
    return count


def source_digest():
    """sha256 over the sources the benchmark builds, so a record names the
    code it measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    roots = [REPO / "CMakeLists.txt", REPO / "src", REPO / "tools", BENCH_DIR]
    for root in roots:
        paths = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
        for path in paths:
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def declared_metrics(trace):
    """(name -> unit) for the mode, as BENCHMARK.json declares them."""
    with open(REPO / "BENCHMARK.json") as spec:
        bench = json.load(spec)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run only the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 1
    if args.self_test:
        print("perfbench: self-test ok")
        return 0

    units = declared_metrics(args.trace)
    out = build_dir()
    run_dir = out / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    binary = "perfbench_replay" if args.trace else "perfbench_wire"
    command = [str(out / binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--serve", str(out / "confcall" / "tools" / "confcall_serve"),
               "--run-dir", str(run_dir)]

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "time_wait_at_start": time_wait_sockets(),
    }
    steal_before = steal_ticks()
    started = time.monotonic()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {binary} did not finish within {RUN_TIMEOUT_S} s\n")
        return 1
    steal_after = steal_ticks()
    record["wall_s"] = round(time.monotonic() - started, 3)
    if steal_before is not None and steal_after is not None:
        record["steal_ticks"] = steal_after - steal_before
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"perfbench: {binary} printed no result (exit {proc.returncode})\n")
        return 1

    details = result.get("details", {})
    record["daemon_command"] = details.get("daemon_command")
    record["generator_lateness_p99_us"] = details.get("generator_lateness_p99_us")
    # False when the generator ran late in every window of a phase; the
    # binary then reports the run as incorrect.
    record["valid"] = details.get("valid", True)
    metrics = result["metrics"]
    # Figures the binary measures but BENCHMARK.json does not declare
    # (too unsteady on a shared host to gate on) stay in the record.
    record["recorded"] = {name: value for name, value in metrics.items() if name not in units}
    record["details"] = details
    (run_dir / "validity.json").write_text(json.dumps(record, indent=2) + "\n")
    print("perfbench: validity " + json.dumps(record))

    missing = sorted(set(units) - set(metrics))
    correct = bool(result["correct"]) and proc.returncode == 0 and not missing
    if missing:
        sys.stderr.write(f"perfbench: metrics missing from the result: {missing}\n")
    final = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
