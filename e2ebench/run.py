#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the HiStar reproduction.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload web|fs-durable|tenants \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

The benchmark is compiled from the checkout's sources into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); build output
goes to standard error. A run prints its figures and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones; a traced run also writes its spans to
<build dir>/spans-<workload>.tsv.

--selftest checks the percentile rule and the self-time arithmetic, and
that the simulated-disk figures and syscalls per lookup of fs-durable
repeat exactly across two runs with one seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Per-layer figures of fs-durable that depend only on the seed.
DETERMINISTIC = [
    "sim_disk_s",
    "write_amp",
    "disk.write_ops",
    "disk.read_ops",
    "disk.seeks",
    "disk.bytes_written",
    "disk.restore_seeks",
    "store.log_records",
    "store.log_applies",
    "unixlib.syscalls_per_lookup",
]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "e2ebench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", out]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", out, "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out


def run_bench(out, args, capture=False):
    cmd = [os.path.join(out, "e2ebench")] + args
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return r.returncode, r.stdout if capture else ""


def selftest(out):
    r = subprocess.run([os.path.join(out, "e2ebench_selftest")], timeout=RUN_TIMEOUT_S)
    ok = r.returncode == 0
    results = []
    for _ in range(2):
        code, text = run_bench(out, ["--workload", "fs-durable", "--seed", "7",
                                     "--seconds", "2", "--trace", "1"], capture=True)
        lines = text.strip().splitlines()
        if code != 0 or not lines:
            print("FAIL fs-durable traced run exited %d" % code)
            return False
        results.append(json.loads(lines[-1]))
    for name in DETERMINISTIC:
        a = results[0]["metrics"][name]["value"]
        b = results[1]["metrics"][name]["value"]
        same = a == b
        ok = ok and same
        print("%s %s repeats for one seed (%r, %r)" % ("ok  " if same else "FAIL", name, a, b))
    for res in results:
        ok = ok and res["correct"]
    print("PASS" if ok else "FAIL")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["web", "fs-durable", "tenants"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    if a.seconds < 1:
        p.error("--seconds must be at least 1")

    out = build()
    if out is None:
        return 1
    if a.selftest:
        return 0 if selftest(out) else 1
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out", os.path.join(out, "spans-%s.tsv" % a.workload)]
    code, _ = run_bench(out, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
