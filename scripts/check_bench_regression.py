#!/usr/bin/env python3
"""Wall-time regression guard for the bench suite.

Three input shapes, combinable:

  --wall-file FILE      `<name> <wall_ms> <exit_code>` lines, the format
                        scripts/run_all_benches.sh appends to json/wall.txt.
  --gbench FILE         google-benchmark --benchmark_out JSON; each
                        benchmark's real_time (in its own time_unit) is
                        checked.
  --baseline A --current B [--max-ratio R]
                        two amdj-bench-v1 JSON files (BENCH_PR*.json);
                        every bench present in both may regress by at most
                        R in wall_ms (default 3.0 — generous, CI machines
                        vary; the quadratics this guards against are 10x+).
                        With --work (default on for this mode) every work
                        counter of each figure run present in both files —
                        the headline counters and each `stats` field except
                        cpu_seconds, simulated_io_seconds and
                        response_seconds — must be equal: counters carry no
                        machine noise, so a change in either direction is
                        an algorithm change. A run is matched by its
                        position among the runs that share its (figure,
                        algorithm, k), and a figure whose run count differs
                        between the files fails.
  --throughput-json FILE [--min-shared-hit-rate R] [--min-shared-speedup R]
                        a multi_query_throughput --json summary containing a
                        "duplicate" (and/or "ladder") shared-work section;
                        each present section's shared_hit_rate and off->on
                        speedup must clear the floors. Guards the
                        JoinService dedupe/cache path: a hit rate collapse
                        means the semantic key or registry broke even while
                        results stay correct.
  --wall-baseline A --wall-current B [--max-wall-ratio R] [--wall-bench N]*
                        A/B overhead guard over two wall-file-format files
                        measured in the SAME CI run (e.g. AMDJ_METRICS=0 vs
                        =1), so a tight ratio like 1.02 is meaningful where
                        a cross-run 1.02 would drown in machine variance.
                        Repeated lines for one bench take the MINIMUM wall
                        time (the standard noise-robust statistic — run
                        each side 3x and the floor is the honest cost).
                        --wall-bench restricts the comparison and makes the
                        named benches REQUIRED in both files.

Absolute limits come from repeated `--limit name=value` flags: milliseconds
for --wall-file entries, nanoseconds for --gbench entries. A limit whose
name matches nothing is an error (a renamed bench must not silently
disarm its guard).

Exit code 0 = all guards pass, 1 = regression, 2 = usage/parse error.
`--self-test` checks the figure-run matching and the counter guard on
canned documents and exits 0 when they behave.

CI uses this for the queue-bench smoke job: micro_queue per-op latencies
and a downsized ablation_tie_break wall time — the two places the seed's
O(n) per-push segment scan and per-push plateau re-sort showed up first.
"""

import argparse
import json
import sys


def usage_error(message):
    """Exit 2, the status of a usage or parse error (1 is a regression)."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_limits(pairs):
    limits = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            usage_error(f"--limit takes name=value, got {pair!r}")
        try:
            limits[name] = float(value)
        except ValueError:
            usage_error(f"bad limit value in {pair!r}")
    return limits


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    if unit not in scale:
        usage_error(f"unknown time_unit {unit!r}")
    return value * scale[unit]


def check_wall_file(path, limits, used, failures):
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 3:
                continue
            name, wall_ms, exit_code = parts[0], float(parts[1]), int(parts[2])
            if exit_code != 0:
                failures.append(f"{name}: exited {exit_code}")
            if name in limits:
                used.add(name)
                if wall_ms > limits[name]:
                    failures.append(
                        f"{name}: {wall_ms:.0f} ms > limit {limits[name]:.0f} ms")
                else:
                    print(f"ok: {name} {wall_ms:.0f} ms "
                          f"(limit {limits[name]:.0f} ms)")


def check_gbench(path, limits, used, failures):
    with open(path) as f:
        doc = json.load(f)
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if name not in limits:
            continue
        used.add(name)
        real_ns = to_ns(bench["real_time"], bench.get("time_unit", "ns"))
        if real_ns > limits[name]:
            failures.append(
                f"{name}: {real_ns:.0f} ns > limit {limits[name]:.0f} ns")
        else:
            print(f"ok: {name} {real_ns:.0f} ns "
                  f"(limit {limits[name]:.0f} ns)")


def check_ratio(baseline_path, current_path, max_ratio, failures):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(current_path) as f:
        current = json.load(f)
    base_wall = baseline.get("wall", {})
    cur_wall = current.get("wall", {})
    for name, cur in sorted(cur_wall.items()):
        base = base_wall.get(name)
        if base is None:
            continue  # new bench: no baseline to regress against
        base_ms = base.get("wall_ms", 0)
        cur_ms = cur.get("wall_ms", 0)
        if base_ms <= 0:
            continue
        ratio = cur_ms / base_ms
        if ratio > max_ratio:
            failures.append(f"{name}: {cur_ms} ms vs baseline {base_ms} ms "
                            f"({ratio:.2f}x > {max_ratio}x)")
        else:
            print(f"ok: {name} {cur_ms} ms vs {base_ms} ms ({ratio:.2f}x)")


def read_wall_mins(path, failures):
    """Parses a wall-file (`<name> <wall_ms> <exit_code>` lines) into
    {name: min wall_ms}. A non-zero exit code is itself a failure."""
    mins = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 3:
                continue
            name, wall_ms, exit_code = parts[0], float(parts[1]), int(parts[2])
            if exit_code != 0:
                failures.append(f"{path}: {name} exited {exit_code}")
                continue
            mins[name] = min(mins.get(name, wall_ms), wall_ms)
    return mins


def check_ab_wall(baseline_path, current_path, max_ratio, only, failures):
    """Same-run A/B wall comparison (e.g. metrics off vs on). Ratios are
    taken on per-bench minimum wall over repeats; with `only` set, those
    benches must appear in both files — a missing measurement must not
    silently disarm the overhead guard."""
    base = read_wall_mins(baseline_path, failures)
    cur = read_wall_mins(current_path, failures)
    names = sorted(only) if only else sorted(set(base) & set(cur))
    compared = 0
    for name in names:
        if name not in base or name not in cur:
            failures.append(f"{name}: missing from "
                            f"{baseline_path if name not in base else current_path}")
            continue
        if base[name] <= 0:
            continue
        compared += 1
        ratio = cur[name] / base[name]
        if ratio > max_ratio:
            failures.append(
                f"{name}: {cur[name]:.0f} ms vs A-side {base[name]:.0f} ms "
                f"({ratio:.3f}x > {max_ratio}x)")
        else:
            print(f"ok: {name} {cur[name]:.0f} ms vs {base[name]:.0f} ms "
                  f"({ratio:.3f}x, limit {max_ratio}x)")
    if compared == 0:
        failures.append(
            f"no benches common to {baseline_path} and {current_path}: "
            "the A/B wall guard is disarmed")


# `stats` fields that carry wall or simulated time, not work.
TIME_FIELDS = ("cpu_seconds", "simulated_io_seconds", "response_seconds")
HEADLINE_COUNTERS = ("node_accesses", "distance_computations",
                     "queue_insertions")


def figure_runs(doc):
    """Flatten a BENCH_*.json figures section into ({key: run}, {figure:
    run count}). A key identifies a run across files: (figure bench, run
    label, k, position among the figure's runs with that label and k), so
    repeated (label, k) runs, such as one run per memory size or forced
    eDmax, each keep their own key."""
    runs = {}
    counts = {}
    for figure, payload in doc.get("figures", {}).items():
        figure_list = payload.get("runs", [])
        counts[figure] = len(figure_list)
        seen = {}
        for run in figure_list:
            # "algorithm" carries the per-run label (e.g. "am-sharded-s8-t4");
            # "bench" just repeats the figure name.
            label = (run.get("algorithm", ""), run.get("k"))
            position = seen.get(label, 0)
            seen[label] = position + 1
            runs[(figure, label[0], label[1], position)] = run
    return runs, counts


def work_counters(run):
    """{name: value} of a run's work counters: the headline counters and
    every `stats` field that is not a time."""
    counters = {name: run[name] for name in HEADLINE_COUNTERS if name in run}
    for name, value in run.get("stats", {}).items():
        if name not in TIME_FIELDS:
            counters["stats." + name] = value
    return counters


def compare_work(base_doc, cur_doc, failures, log=print):
    """Diff the work counters of every figure run present in both
    documents; any difference, in either direction, fails. A figure whose
    run count differs fails; figures in only one document are skipped.
    Returns the number of counters compared."""
    base_runs, base_counts = figure_runs(base_doc)
    cur_runs, cur_counts = figure_runs(cur_doc)
    for figure in sorted(set(base_counts) & set(cur_counts)):
        if base_counts[figure] != cur_counts[figure]:
            failures.append(f"{figure}: {cur_counts[figure]} runs vs "
                            f"{base_counts[figure]} in the baseline")
    common = sorted(set(base_runs) & set(cur_runs), key=str)
    compared = 0
    for key in common:
        label = f"{key[0]}/{key[1]}/k={key[2]}#{key[3]}"
        base = work_counters(base_runs[key])
        cur = work_counters(cur_runs[key])
        for counter in sorted(set(base) | set(cur)):
            compared += 1
            if base.get(counter) != cur.get(counter):
                failures.append(f"{label} {counter}: {cur.get(counter)} "
                                f"vs baseline {base.get(counter)}")
    log(f"work: {compared} counters of {len(common)} runs compared")
    return compared


def check_work_counters(baseline_path, current_path, failures):
    """compare_work over two BENCH_*.json files; comparing nothing is
    itself a failure (renamed everything? the guard is disarmed)."""
    with open(baseline_path) as f:
        base_doc = json.load(f)
    with open(current_path) as f:
        cur_doc = json.load(f)
    if compare_work(base_doc, cur_doc, failures) == 0:
        failures.append(
            f"no figure runs common to {baseline_path} and {current_path} "
            "(renamed everything? the counter guard is disarmed)")


def self_test():
    """Canned documents for the figure-run matching and counter guard."""
    def run(algorithm, k, nodes, dist, **stats):
        base_stats = {"node_accesses": nodes,
                      "real_distance_computations": dist,
                      "queue_swapins": 3, "cpu_seconds": 0.5,
                      "simulated_io_seconds": 1.0, "response_seconds": 1.5}
        base_stats.update(stats)
        return {"algorithm": algorithm, "k": k, "node_accesses": nodes,
                "distance_computations": dist, "queue_insertions": 7,
                "wall_ms": 1.0, "stats": base_stats}

    def doc(*runs, figure="fig"):
        return {"figures": {figure: {"runs": list(runs)}}}

    base = doc(run("AM-KDJ", 10, 100, 1000), run("AM-KDJ", 10, 200, 2000))

    def guard(cur):
        failures = []
        compare_work(base, cur, failures, log=lambda _: None)
        return failures

    checks = [
        ("identical documents pass", guard(base) == []),
        # Two runs share (figure, algorithm, k); a key without the
        # position would keep only the second.
        ("key collision keeps both runs",
         len(figure_runs(base)[0]) == 2),
        ("first of colliding runs compared",
         guard(doc(run("AM-KDJ", 10, 150, 1000),
                   run("AM-KDJ", 10, 200, 2000))) != []),
        ("decrease fails",
         guard(doc(run("AM-KDJ", 10, 100, 1000),
                   run("AM-KDJ", 10, 200, 1999))) != []),
        ("non-headline counter change fails",
         guard(doc(run("AM-KDJ", 10, 100, 1000),
                   run("AM-KDJ", 10, 200, 2000, queue_swapins=4))) != []),
        ("time fields are not work",
         guard(doc(run("AM-KDJ", 10, 100, 1000, cpu_seconds=9.0,
                       simulated_io_seconds=2.0, response_seconds=11.0),
                   run("AM-KDJ", 10, 200, 2000))) == []),
        ("run-count mismatch fails",
         guard(doc(run("AM-KDJ", 10, 100, 1000))) != []),
        ("missing stats field fails",
         guard(doc(run("AM-KDJ", 10, 100, 1000),
                   run("AM-KDJ", 10, 200, 2000, pairs_produced=10))) != []),
        ("other figures are skipped",
         guard(doc(run("B-KDJ", 1, 1, 1), figure="new")) == []),
    ]
    failures = [name for name, ok in checks if not ok]
    for name in failures:
        print(f"self-test FAIL: {name}")
    if failures:
        print(f"self-test: {len(failures)}/{len(checks)} checks failed")
        return 1
    print(f"self-test: all {len(checks)} checks passed")
    return 0


def check_throughput_shared(path, min_hit_rate, min_speedup, failures):
    """Guards the shared-work sections of a multi_query_throughput --json
    summary. Every section present ("duplicate", "ladder") must clear the
    hit-rate and speedup floors; a file with neither section disarms the
    guard and is itself a failure."""
    with open(path) as f:
        doc = json.load(f)
    checked = 0
    for section in ("duplicate", "ladder"):
        payload = doc.get(section)
        if payload is None:
            continue
        checked += 1
        hit_rate = payload.get("shared_hit_rate", 0.0)
        speedup = payload.get("speedup", 0.0)
        if hit_rate < min_hit_rate:
            failures.append(
                f"{section}: shared_hit_rate {hit_rate:.3f} < "
                f"floor {min_hit_rate}")
        else:
            print(f"ok: {section} shared_hit_rate {hit_rate:.3f} "
                  f"(floor {min_hit_rate})")
        if speedup < min_speedup:
            failures.append(
                f"{section}: shared-work speedup {speedup:.2f}x < "
                f"floor {min_speedup}x")
        else:
            print(f"ok: {section} speedup {speedup:.2f}x "
                  f"(floor {min_speedup}x)")
    if checked == 0:
        failures.append(
            f"{path}: no duplicate/ladder section (the shared-work guard "
            "is disarmed)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wall-file", action="append", default=[])
    parser.add_argument("--gbench", action="append", default=[])
    parser.add_argument("--limit", action="append", default=[],
                        metavar="NAME=VALUE")
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--max-ratio", type=float, default=3.0)
    parser.add_argument("--work", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="also require equal figure work counters "
                             "in --baseline/--current mode")
    parser.add_argument("--throughput-json",
                        help="multi_query_throughput --json summary with "
                             "shared-work sections to guard")
    parser.add_argument("--min-shared-hit-rate", type=float, default=0.5)
    parser.add_argument("--min-shared-speedup", type=float, default=1.0)
    parser.add_argument("--wall-baseline")
    parser.add_argument("--wall-current")
    parser.add_argument("--max-wall-ratio", type=float, default=1.02)
    parser.add_argument("--wall-bench", action="append", default=[],
                        metavar="NAME",
                        help="restrict the A/B wall guard to NAME (repeat); "
                             "named benches become required")
    parser.add_argument("--self-test", action="store_true",
                        help="run the canned-document checks and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    if bool(args.baseline) != bool(args.current):
        usage_error("--baseline and --current go together")
    if bool(args.wall_baseline) != bool(args.wall_current):
        usage_error("--wall-baseline and --wall-current go together")
    if not (args.wall_file or args.gbench or args.baseline
            or args.wall_baseline or args.throughput_json):
        usage_error("nothing to check")

    limits = parse_limits(args.limit)
    used = set()
    failures = []
    for path in args.wall_file:
        check_wall_file(path, limits, used, failures)
    for path in args.gbench:
        check_gbench(path, limits, used, failures)
    if args.baseline:
        check_ratio(args.baseline, args.current, args.max_ratio, failures)
        if args.work:
            check_work_counters(args.baseline, args.current, failures)
    if args.throughput_json:
        check_throughput_shared(args.throughput_json,
                                args.min_shared_hit_rate,
                                args.min_shared_speedup, failures)
    if args.wall_baseline:
        check_ab_wall(args.wall_baseline, args.wall_current,
                      args.max_wall_ratio, args.wall_bench, failures)

    unused = set(limits) - used
    if unused:
        failures.append("limits matched no bench (renamed?): " +
                        ", ".join(sorted(unused)))

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("all bench guards passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
