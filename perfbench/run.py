#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload kdj_cold --seed 1 --seconds 50 --trace 0

Builds the measuring program from source on first use (into
$CARGO_TARGET_DIR/perfbench-<checkout>, default .bench_build/, where
<checkout> is a digest of the checkout's path), runs it,
checks that the per-request work counters match earlier runs of the same
seed and source, prints a readable summary and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, and the spans are written to the
build directory. README.md describes the workloads and every metric.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kdj_cold", "svc_open")
# A run measures --seconds plus set-up, warm-up and the reference join,
# a few seconds; anything far beyond that is a hang.
RUN_GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    """One build directory per checkout: checkouts that share a target
    directory must never run each other's program."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    checkout = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(target, f"perfbench-{checkout}")


def build(out_dir):
    """Configures once, then brings the program up to date (a no-op build
    when nothing changed). The directory belongs to this checkout alone
    (see build_dir). Serialized by a lock so concurrent runs in one
    checkout never build over each other."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out_dir, ignore_errors=True)
                fail("configuring the benchmark failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("building the benchmark failed")
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check_counters(out_dir, workload, seed, digest, counters):
    """Per-request work counters are deterministic for one seed and one
    source tree: the first run records them, later runs must match."""
    path = os.path.join(out_dir, "counters",
                        f"{workload}-{seed}-{digest[:16]}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counters, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        expected = json.load(f)
    return [f"counter {name} drifted from an earlier run: "
            f"{expected.get(name)} then {counters.get(name)}"
            for name in sorted(set(expected) | set(counters))
            if expected.get(name) != counters.get(name)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = {m["name"]: m["unit"] for m in
              declared["per_layer" if args.trace else "end_to_end"]}

    out_dir = build_dir()
    program = build(out_dir)
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    if args.trace:
        command += ["--spans", spans]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {args.seconds + RUN_GRACE_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"the measuring program exited with {run.returncode}")
    report = json.loads(run.stdout)

    metrics = report["metrics"]
    if set(metrics) != set(wanted):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(wanted) - set(metrics))}, extra "
             f"{sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name} is in {metrics[name]['unit']}, declared {unit}")

    digest = source_digest()
    errors = report["errors"] + check_counters(
        out_dir, args.workload, args.seed, digest, report["counters"])
    attempted, failed = report["attempted"], report["failed"]
    if attempted == 0:
        fail("the run completed no request")
    fingerprint = dict(report["notes"].pop("fingerprint"),
                       git_commit=git_commit(), source_sha256=digest)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(f"requests attempted {attempted}  failed {failed}  failed_frac "
          f"{failed / attempted:.6g}")
    for key, value in sorted(report["notes"].items()):
        print(f"note {key} {json.dumps(value)}")
    for name in sorted(metrics):
        print(f"  {name:30s} {metrics[name]['value']:>16.6g} "
              f"{metrics[name]['unit']}")
    if args.trace:
        print(f"spans {spans}")
    for error in errors:
        print(f"ERROR {error}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
