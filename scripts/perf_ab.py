#!/usr/bin/env python3
"""A/B of two revisions on one workload of the repository benchmark.

    scripts/perf_ab.py --base REV [--change REV] --workload svc_open \\
        [--pairs 6] [--seconds 50] [--seed-base 1000] [--trace 0|1] \\
        [--work-dir DIR]
    scripts/perf_ab.py --self-test

Exports both revisions with `git archive` into the work directory (one
directory per commit, reused by later invocations) and runs
`perfbench/run.py` from each for N alternating pairs: pair i uses the
fresh seed seed-base + i on both sides, and the side that runs first
alternates (base first in even pairs). One short unmeasured run per side
builds its program first.

Per metric (BENCHMARK.json's end_to_end metrics, or per_layer with
--trace 1) it prints each side's median [IQR], the change/base ratio of
the medians and the pairs the change won. An end-to-end metric whose
median moved past its BENCHMARK.json bound in its worse direction is
flagged REGRESSION. It then compares the per-seed work-counter files
(`counters/` in each side's build directory) of every seed it ran and
lists each one that differs between the sides.

Exit status: 0 if every run was `correct`, 1 if some run was not, 2 on a
usage or build error.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kdj_cold", "svc_open")


def fail(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(2)


def declared_metrics(benchmark, trace):
    """[(name, better, bound or None)] in BENCHMARK.json order."""
    section = benchmark["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["better"], m.get("bound")) for m in section]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics, pairs):
    """One row per metric over `pairs`, a list of (base, change) run
    results as run.py prints them. Returns dicts with the medians, IQRs,
    ratio, wins and whether the move passes the bound the worse way."""
    rows = []
    for name, better, bound in metrics:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        b1, b_med, b3 = quartiles(base)
        c1, c_med, c3 = quartiles(change)
        ratio = c_med / b_med if b_med != 0 else float("nan")
        if better == "lower":
            wins = sum(c < b for b, c in zip(base, change))
            worse_by = ratio - 1.0
        else:
            wins = sum(c > b for b, c in zip(base, change))
            worse_by = 1.0 - ratio
        rows.append({
            "name": name, "better": better, "bound": bound,
            "base_median": b_med, "base_iqr": b3 - b1,
            "change_median": c_med, "change_iqr": c3 - c1,
            "ratio": ratio, "wins": wins, "pairs": len(pairs),
            "regression": bound is not None and worse_by > bound,
        })
    return rows


def counter_files(build_root, workload, seeds):
    """{seed: bytes} of the counter files of `seeds` under one side's
    build directory (run.py names them <workload>-<seed>-<digest>.json)."""
    found = {}
    if not os.path.isdir(build_root):
        return found
    for entry in sorted(os.listdir(build_root)):
        directory = os.path.join(build_root, entry, "counters")
        if not entry.startswith("perfbench-") or not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            parts = name.rsplit("-", 2)
            if len(parts) != 3 or parts[0] != workload:
                continue
            if not parts[1].isdigit() or int(parts[1]) not in seeds:
                continue
            with open(os.path.join(directory, name), "rb") as f:
                found[int(parts[1])] = f.read()
    return found


def differing_counters(base_files, change_files, seeds):
    """Seeds whose counter file is missing on a side or not byte-equal."""
    return [seed for seed in sorted(seeds)
            if seed not in base_files or seed not in change_files
            or base_files[seed] != change_files[seed]]


def holds_no_counters(data):
    """True if a counter file is an empty JSON object (or empty)."""
    try:
        return not json.loads(data or b"{}")
    except ValueError:
        return False


def empty_counters(base_files, change_files, seeds):
    """Seeds whose counter files on both sides hold no counters: equal
    bytes there show nothing about the work done."""
    return [seed for seed in sorted(seeds)
            if seed in base_files and seed in change_files
            and holds_no_counters(base_files[seed])
            and holds_no_counters(change_files[seed])]


def format_value(value):
    return f"{value:.6g}"


def report(rows, runs, differing, seeds, empty=()):
    """Prints the table and the verdict; returns the exit status. `empty`
    lists the seeds whose counter files hold no counters on either side."""
    print(f"{'metric':28s} {'better':6s} {'base median [IQR]':>24s} "
          f"{'change median [IQR]':>24s} {'ratio':>7s} {'won':>5s}")
    for row in rows:
        base = (f"{format_value(row['base_median'])} "
                f"[{format_value(row['base_iqr'])}]")
        change = (f"{format_value(row['change_median'])} "
                  f"[{format_value(row['change_iqr'])}]")
        flag = ""
        if row["regression"]:
            flag = f"  REGRESSION (past bound {row['bound']})"
        print(f"{row['name']:28s} {row['better']:6s} {base:>24s} "
              f"{change:>24s} {row['ratio']:>7.3f} "
              f"{row['wins']:>2d}/{row['pairs']:<2d}{flag}")
    incorrect = [(label, seed) for label, seed, result in runs
                 if not result["correct"]]
    for label, seed in incorrect:
        print(f"NOT CORRECT: {label} seed {seed}")
    if differing:
        print("counter files that differ between the sides (seed): " +
              ", ".join(str(s) for s in differing))
    equal = len(seeds) - len(differing) - len(empty)
    if empty and equal == 0 and not differing:
        print(f"counter files: no counters recorded ({len(empty)} seeds)")
    elif not differing and not empty:
        print(f"counter files: all {len(seeds)} seeds byte-equal")
    elif empty:
        print(f"counter files: {equal} seeds byte-equal, {len(empty)} with "
              "no counters recorded")
    regressions = [row["name"] for row in rows if row["regression"]]
    print(f"verdict: {len(incorrect)} incorrect run(s), "
          f"{len(regressions)} metric(s) past bound"
          f"{' (' + ', '.join(regressions) + ')' if regressions else ''}, "
          f"{len(differing)} differing counter file(s)")
    return 1 if incorrect else 0


def resolve(rev):
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
        capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"unknown revision {rev}")
    return out.stdout.strip()


def export(commit, work_dir):
    """The commit's tree under work_dir, exported once and reused."""
    dest = os.path.join(work_dir, commit[:12])
    if os.path.exists(os.path.join(dest, "perfbench", "run.py")):
        return dest
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"exporting {commit} failed")
    return dest


def run_side(checkout, workload, seed, seconds, trace):
    """One run.py invocation in `checkout`; its parsed result line."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(command, capture_output=True, text=True, env=env)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stderr[-4000:])
        fail(f"run.py failed in {checkout} (seed {seed})")
    return json.loads(lines[-1])


def self_test():
    metrics = [("p50_ms", "lower", 0.25), ("rate", "higher", 0.25),
               ("layer_ms", "lower", None)]

    def result(p50, rate, layer, correct=True):
        return {"correct": correct, "attempted": 10, "failed": 0,
                "metrics": {"p50_ms": {"value": p50, "unit": "ms"},
                            "rate": {"value": rate, "unit": "1/s"},
                            "layer_ms": {"value": layer, "unit": "ms"}}}

    # p50 improves in 3 of 4 pairs; rate falls by 40% (past its bound);
    # layer_ms doubles but has no bound.
    pairs = [(result(10, 100, 1), result(8, 60, 2)),
             (result(11, 100, 1), result(9, 60, 2)),
             (result(12, 100, 1), result(13, 60, 2)),
             (result(10, 100, 1), result(7, 60, 2))]
    rows = {row["name"]: row for row in summarize(metrics, pairs)}
    checks = [
        ("p50 median", rows["p50_ms"]["base_median"] == 10.5),
        ("p50 change median", rows["p50_ms"]["change_median"] == 8.5),
        ("p50 wins", rows["p50_ms"]["wins"] == 3),
        ("p50 not flagged", not rows["p50_ms"]["regression"]),
        ("p50 iqr", abs(rows["p50_ms"]["base_iqr"] - 1.25) < 1e-12),
        ("rate ratio", abs(rows["rate"]["ratio"] - 0.6) < 1e-12),
        ("rate wins", rows["rate"]["wins"] == 0),
        ("rate flagged", rows["rate"]["regression"]),
        ("unbounded metric never flagged",
         not rows["layer_ms"]["regression"]),
    ]
    # A lower-is-better metric that rises by more than its bound.
    slow = summarize([("p50_ms", "lower", 0.25)],
                     [(result(10, 1, 1), result(13, 1, 1))])
    checks.append(("lower-is-better rise flagged", slow[0]["regression"]))

    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, files in (
                ("base", {"svc_open-1-aaaa.json": b'{"n": 1}',
                          "svc_open-2-aaaa.json": b'{"n": 2}',
                          "svc_open-3-aaaa.json": b'{"n": 3}',
                          "kdj_cold-1-aaaa.json": b'{"n": 9}',
                          "svc_open-9-aaaa.json": b'{"n": 9}'}),
                ("change", {"svc_open-1-bbbb.json": b'{"n": 1}',
                            "svc_open-2-bbbb.json": b'{"n": 5}',
                            "kdj_cold-1-bbbb.json": b'{"n": 0}'})):
            counters = os.path.join(tmp, side, "perfbench-0123", "counters")
            os.makedirs(counters)
            for name, data in files.items():
                with open(os.path.join(counters, name), "wb") as f:
                    f.write(data)
            sides[side] = counter_files(os.path.join(tmp, side), "svc_open",
                                        {1, 2, 3})
        checks.append(("counter files read", sorted(sides["base"]) ==
                       [1, 2, 3] and sorted(sides["change"]) == [1, 2]))
        checks.append(("differing counters",
                       differing_counters(sides["base"], sides["change"],
                                          {1, 2, 3}) == [2, 3]))

        for side, files in (("base", {"svc_open-1-aaaa.json": b"{}",
                                      "svc_open-2-aaaa.json": b"{}\n"}),
                            ("change", {"svc_open-1-bbbb.json": b"{}",
                                        "svc_open-2-bbbb.json": b"{}\n"})):
            counters = os.path.join(tmp, "empty", side, "perfbench-0123",
                                    "counters")
            os.makedirs(counters)
            for name, data in files.items():
                with open(os.path.join(counters, name), "wb") as f:
                    f.write(data)
            sides[side] = counter_files(os.path.join(tmp, "empty", side),
                                        "svc_open", {1, 2})
        checks.append(("empty counter files found",
                       empty_counters(sides["base"], sides["change"],
                                      {1, 2}) == [1, 2]))
        checks.append(("non-empty counter files are not empty",
                       empty_counters({1: b'{"n": 1}'}, {1: b'{"n": 1}'},
                                      {1}) == []))
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            report(summarize(metrics, pairs[:1]), [], [], [1, 2], [1, 2])
        checks.append(("empty counter files claim nothing",
                       "no counters recorded (2 seeds)" in output.getvalue()
                       and "byte-equal" not in output.getvalue()))

    runs = [("base", 1, pairs[0][0]), ("change", 1, pairs[0][1])]
    checks.append(("all correct exits 0", report(
        summarize(metrics, pairs[:1]), runs, [], {1}) == 0))
    runs.append(("change", 2, result(1, 1, 1, correct=False)))
    checks.append(("incorrect run exits 1", report(
        summarize(metrics, pairs[:1]), runs, [2], {1, 2}) == 1))

    failures = [name for name, ok in checks if not ok]
    for name in failures:
        print(f"self-test FAIL: {name}")
    if failures:
        print(f"self-test: {len(failures)}/{len(checks)} checks failed")
        return 1
    print(f"self-test: all {len(checks)} checks passed")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--work-dir")
    args = parser.parse_args()
    if args.pairs < 1 or args.seed_base < 0:
        fail("--pairs must be >= 1 and --seed-base >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = args.seconds or benchmark["run_seconds"]
    metrics = declared_metrics(benchmark, args.trace)
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="perf_ab-")
    os.makedirs(work_dir, exist_ok=True)
    sides = {}
    for label, rev in (("base", args.base), ("change", args.change)):
        commit = resolve(rev)
        sides[label] = export(commit, work_dir)
        print(f"{label}: {rev} = {commit} in {sides[label]}", flush=True)

    seeds = [args.seed_base + i for i in range(args.pairs)]
    for label, checkout in sides.items():
        print(f"building {label} (unmeasured 1 s run)", flush=True)
        run_side(checkout, args.workload, seeds[0], 1, args.trace)

    runs = []
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        results = {}
        for label in order:
            results[label] = run_side(sides[label], args.workload, seed,
                                      seconds, args.trace)
            runs.append((label, seed, results[label]))
            values = " ".join(
                f"{name}={format_value(results[label]['metrics'][name]['value'])}"
                for name, _, _ in metrics)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {label}: "
                  f"correct={results[label]['correct']} {values}",
                  flush=True)
        pairs.append((results["base"], results["change"]))

    counters = {label: counter_files(os.path.join(checkout, ".bench_build"),
                                     args.workload, set(seeds))
                for label, checkout in sides.items()}
    differing = differing_counters(counters["base"], counters["change"],
                                   set(seeds))
    empty = empty_counters(counters["base"], counters["change"], set(seeds))
    print()
    return report(summarize(metrics, pairs), runs, differing, seeds, empty)


if __name__ == "__main__":
    sys.exit(main())
