#!/usr/bin/env python3
"""Compare a fresh bench_micro JSON against the committed baseline.

Flags every benchmark whose real_time regressed by more than the threshold
(default 25%) and prints a full delta table. New or vanished benchmarks are
reported informationally — adding a benchmark must not fail CI.

Usage:
    tools/bench_compare.py [--threshold 0.25] [--strict] [--only A,B,...] \
        BASELINE.json FRESH.json

Exit status is 0 unless --strict is given and at least one regression
exceeds the threshold. CI runs the full table non-strict — micro timings on
shared runners are noisy, so regressions warn loudly instead of
hard-failing — plus (behind FROTE_BENCH_STRICT=1 in ci.sh) a strict pass
over a curated subset of load-bearing benchmarks via --only. A perf PR that
moves numbers on purpose refreshes the committed baseline.

Per-thread-count baselines: bench/dump_bench_json.sh's FROTE_BENCH_THREADS
sweep records "<name>/threads:<n>" rows; they diff by name like any other
benchmark (an --only base name also matches its /threads:n variants), and
the fresh run's variants are summarised as a thread-scaling table.

Each side's host (Google Benchmark context: host_name, num_cpus,
mhz_per_cpu) is printed first, with a warning on stderr when the two
differ: a delta between hosts measures the hosts as much as the change.
A "/threads:<n>" row recorded on a host with fewer than n CPUs timed
oversubscribed workers, not n-way scaling, so the row is neither flagged
nor gated (--strict) when either side's num_cpus is below n; it stays in
the table, and the reason is printed.
"""

import argparse
import json
import sys


HOST_KEYS = ("host_name", "num_cpus", "mhz_per_cpu")


def load_benchmarks(path):
    """Return (host, {name: real_time}); host maps HOST_KEYS to the
    recording context's values (None when a key is absent)."""
    with open(path) as fh:
        doc = json.load(fh)
    context = doc.get("context", {})
    host = {key: context.get(key) for key in HOST_KEYS}
    out = {}
    for bench in doc.get("benchmarks", []):
        # Aggregate entries (mean/median/stddev) would double-count; the
        # repo's recording runs single repetitions, but stay robust.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        out[bench["name"]] = float(bench["real_time"])
    return host, out


def host_line(host):
    return "  ".join(f"{key}={'?' if host[key] is None else host[key]}"
                     for key in HOST_KEYS)


def ungated_reason(name, base_host, fresh_host):
    """Why a /threads:n row must not be gated, or None when it may be: a
    side whose context reports num_cpus < n could not run n threads."""
    _, sep, count = name.rpartition("/threads:")
    if not sep:
        return None
    try:
        threads = int(count)
    except ValueError:
        return None
    for side, host in (("baseline", base_host), ("fresh", fresh_host)):
        cpus = host.get("num_cpus")
        if cpus is not None and int(cpus) < threads:
            return f"{side} num_cpus={cpus} < {threads} threads"
    return None


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f}{unit}"
    return f"{ns:.0f}ns"


def print_thread_scaling(fresh):
    """Summarise /threads:n variants as speedup-vs-1-thread per benchmark."""
    groups = {}
    for name, ns in fresh.items():
        if "/threads:" not in name:
            continue
        base_name, _, count = name.rpartition("/threads:")
        try:
            groups.setdefault(base_name, {})[int(count)] = ns
        except ValueError:
            continue
    if not groups:
        return
    print("\nthread scaling (fresh run):")
    for base_name in sorted(groups):
        by_count = groups[base_name]
        one = by_count.get(1)
        cells = []
        for count in sorted(by_count):
            cell = f"{count}t={fmt_ns(by_count[count])}"
            if one is not None and count != 1:
                cell += f" ({one / by_count[count]:.2f}x)"
            cells.append(cell)
        print(f"  {base_name}: {'  '.join(cells)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative real_time growth that counts as a "
                             "regression (default 0.25 = +25%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any regression exceeds the "
                             "threshold")
    parser.add_argument("--only", default="",
                        help="comma-separated benchmark names to compare; a "
                             "name also matches its /arg variants (e.g. "
                             "BM_IpSelection matches BM_IpSelection/4000). "
                             "With --strict, a curated subset gates CI "
                             "while the rest stays informational")
    args = parser.parse_args()

    base_host, base = load_benchmarks(args.baseline)
    fresh_host, fresh = load_benchmarks(args.fresh)
    print(f"baseline host: {host_line(base_host)}")
    print(f"fresh host:    {host_line(fresh_host)}")
    if base_host != fresh_host:
        print("warning: baseline and fresh run were recorded on different "
              "hosts; deltas mix host and code changes", file=sys.stderr)
    print()

    if args.only:
        wanted = [w for w in args.only.split(",") if w]

        def selected(name):
            return any(name == w or name.startswith(w + "/") for w in wanted)

        def matches(name, names):
            return any(n == name or n.startswith(name + "/") for n in names)

        base = {k: v for k, v in base.items() if selected(k)}
        fresh = {k: v for k, v in fresh.items() if selected(k)}
        missing = [w for w in wanted
                   if not matches(w, base) or not matches(w, fresh)]
        if missing:
            print(f"--only names absent from baseline or fresh run: "
                  f"{', '.join(missing)}", file=sys.stderr)
            if args.strict:
                return 1

    common = [name for name in base if name in fresh]
    regressions = []
    ungated = []
    width = max((len(n) for n in common), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'fresh':>10}  delta")
    for name in common:
        delta = fresh[name] / base[name] - 1.0
        marker = ""
        reason = ungated_reason(name, base_host, fresh_host)
        if reason is not None:
            ungated.append((name, reason))
            marker = f"  (not gated: {reason})"
        elif delta > args.threshold:
            marker = "  << REGRESSION"
            regressions.append((name, delta))
        elif delta < -args.threshold:
            marker = "  (improved)"
        print(f"{name:<{width}}  {fmt_ns(base[name]):>10}  "
              f"{fmt_ns(fresh[name]):>10}  {delta:+7.1%}{marker}")

    for name in sorted(set(fresh) - set(base)):
        print(f"{name:<{width}}  {'—':>10}  {fmt_ns(fresh[name]):>10}  (new)")
    for name in sorted(set(base) - set(fresh)):
        print(f"{name:<{width}}  {fmt_ns(base[name]):>10}  {'—':>10}  "
              f"(missing from fresh run)")

    print_thread_scaling(fresh)

    if ungated:
        print(f"\n{len(ungated)} /threads:n row(s) not gated:")
        for name, reason in ungated:
            print(f"  {name}: {reason}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        if args.strict:
            return 1
        print("(non-strict mode: reporting only — rerun with --strict to "
              "fail)", file=sys.stderr)
    else:
        print(f"\nno regressions beyond {args.threshold:.0%} across "
              f"{len(common)} common benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
