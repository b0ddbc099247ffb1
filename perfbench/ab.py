#!/usr/bin/env python3
"""Parent-vs-change A/B runs of the benchmark on one host, and its self-tests.

A/B: run the benchmark in two checkouts of the repository, alternating which
side goes first in each pair, and compare every end-to-end metric:

    python3 perfbench/ab.py ab --base ../parent --change . --pairs 10

Spread: run one checkout on several seeds and report each end-to-end
metric's quartile spread as a share of its median, against its bound:

    python3 perfbench/ab.py spread --workload trace-nvem --runs 5

Self-test: show that the comparison flags a calibrated 30 % slowdown, that a
corrupted fingerprint fails every engine call, and that the traced run
reports its own overhead:

    python3 perfbench/ab.py selftest

Each side builds and runs its own checkout's benchmark, so the A/B refuses
to compare checkouts whose BENCHMARK.json or perfbench/ differ. Only the
standard library is used.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def bench_digest(root):
    """sha256 over BENCHMARK.json and every file under perfbench/."""
    h = hashlib.sha256()
    files = [os.path.join(root, "BENCHMARK.json")]
    for d, dirs, names in os.walk(os.path.join(root, "perfbench")):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__" and not x.startswith("."))
        files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, root).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def run_bench(root, spec, workload, seed, seconds, trace=0, extra=()):
    """Runs the benchmark once in checkout root; returns (host, summary)."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark failed in {root}: {' '.join(cmd)}")
    host = None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
    return host, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, base, change):
    """Fraction by which change is worse than base (negative: better)."""
    if base == 0:
        return 0.0
    if metric["better"] == "lower":
        return (change - base) / base
    return (base - change) / base


def compare(spec, base_runs, change_runs):
    """Prints one row per metric; returns the names that regressed."""
    regressed = []
    print(f"{'metric':16s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'worse by':>9s} {'bound':>6s} {'wins':>5s}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        a = [r["metrics"][name]["value"] for r in base_runs]
        b = [r["metrics"][name]["value"] for r in change_runs]
        qa, qb = quartiles(a), quartiles(b)
        worse = worse_by(m, qa[1], qb[1])
        wins = sum(1 for x, y in zip(a, b) if worse_by(m, x, y) < 0) / len(a)
        base_spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
        if worse > m["bound"]:
            verdict = "REGRESSED"
            regressed.append(name)
        elif -worse > base_spread and wins >= 0.9:
            verdict = "improved"
        elif base_spread > m["bound"] / 3:
            verdict = "unresolved (base spread above a third of the bound)"
        else:
            verdict = "within bound"
        print(f"{name:16s} {qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
              f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] {worse:+9.3f} {m['bound']:6.2f} "
              f"{wins:5.2f}  {verdict}")
    return regressed


def ab(args, base_extra=(), change_extra=()):
    """Alternating pairs on one host; returns True when nothing regressed."""
    if bench_digest(args.base) != bench_digest(args.change):
        raise SystemExit("the two checkouts hold different benchmarks (BENCHMARK.json or "
                         "perfbench/); refusing to compare")
    spec = load_spec(args.change)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for w in workloads:
        base_runs, change_runs, hosts = [], [], set()
        for i in range(args.pairs):
            seed = args.seed0 + i
            sides = [("base", args.base, base_extra), ("change", args.change, change_extra)]
            if i % 2:
                sides.reverse()
            for side, root, extra in sides:
                host, res = run_bench(root, spec, w, seed, seconds, extra=extra)
                hosts.add(json.dumps({k: v for k, v in host.items() if k != "git_commit"}, sort_keys=True))
                if not res["correct"]:
                    print(f"{w} seed {seed}: {side} run failed its output check "
                          f"({res['failed']} of {res['attempted']} calls)")
                    ok = False
                (base_runs if side == "base" else change_runs).append(res)
        if len(hosts) != 1:
            raise SystemExit("the two sides ran on different hosts; refusing to compare")
        print(f"\n== {w}: {args.pairs} pairs, seeds {args.seed0}..{args.seed0 + args.pairs - 1}, "
              f"{seconds} s per run")
        if compare(spec, base_runs, change_runs):
            ok = False
    return ok


def spread(args):
    spec = load_spec(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        _, res = run_bench(ROOT, spec, args.workload, args.seed0 + i, seconds)
        if not res["correct"]:
            raise SystemExit(f"seed {args.seed0 + i}: output check failed")
        runs.append(res)
        print(json.dumps({k: v["value"] for k, v in res["metrics"].items()}), flush=True)
    for m in spec["end_to_end"]:
        q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
        s = (q3 - q1) / med
        print(f"{m['name']:14s} median {med:12.6g}  spread {s:.4f}  bound {m['bound']}  "
              f"{'ok' if s <= m['bound'] / 3 else 'WIDE'}")


def selftest():
    spec = load_spec(ROOT)
    ok = True
    w, seconds = "dc-disk", 5

    # 1. A calibrated 30 % slowdown of every engine call must be flagged.
    print("self-test 1: --inject-slowdown 0.3 on the change side must regress")
    args = argparse.Namespace(base=ROOT, change=ROOT, workload=[w], pairs=3, seed0=1, seconds=seconds)
    if ab(args, change_extra=("--inject-slowdown", "0.3")):
        print("FAIL: the injected slowdown was not flagged")
        ok = False
    else:
        print("ok: the injected slowdown was flagged")

    # 2. A corrupted fingerprint must fail every engine call.
    print("\nself-test 2: a corrupted fingerprint must give fail_frac = 1")
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        fps = json.load(f)
    good = fps[w]["1"]["report_sha256"]
    fps[w]["1"]["report_sha256"] = ("0" if good[0] != "0" else "1") + good[1:]
    bad = os.path.join(ROOT, ".bench_build", "corrupted-fingerprints.json")
    os.makedirs(os.path.dirname(bad), exist_ok=True)
    with open(bad, "w") as f:
        json.dump(fps, f)
    _, res = run_bench(ROOT, spec, w, 1, 2, extra=("--fingerprints", bad))
    frac = res["failed"] / res["attempted"]
    print(f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']} fail_frac={frac}")
    if res["correct"] or frac != 1:
        print("FAIL: the corrupted fingerprint was not caught on every call")
        ok = False

    # 3. The traced run reports its overhead against untraced calls.
    print("\nself-test 3: the traced run reports bench.trace_overhead_pct")
    for wl in spec["workloads"]:
        _, res = run_bench(ROOT, spec, wl["name"], 1, seconds, trace=1)
        overhead = res["metrics"].get("bench.trace_overhead_pct")
        print(f"{wl['name']}: {overhead}")
        if overhead is None or not res["correct"]:
            ok = False
    print("\nself-test", "passed" if ok else "FAILED")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    pa = sub.add_parser("ab", help="alternating parent-vs-change pairs")
    pa.add_argument("--base", required=True, help="checkout of the parent commit")
    pa.add_argument("--change", default=ROOT, help="checkout of the change (default: this one)")
    pa.add_argument("--workload", action="append", help="workload (repeatable; default all)")
    pa.add_argument("--pairs", type=int, default=10)
    pa.add_argument("--seed0", type=int, default=1)
    pa.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ps = sub.add_parser("spread", help="quartile spread over seeds")
    ps.add_argument("--workload", required=True)
    ps.add_argument("--runs", type=int, default=10)
    ps.add_argument("--seed0", type=int, default=1)
    ps.add_argument("--seconds", type=int, default=0)
    sub.add_parser("selftest", help="check that the harness catches what it must")
    args = p.parse_args()
    if args.mode == "ab":
        ok = ab(args)
    elif args.mode == "spread":
        spread(args)
        ok = True
    else:
        ok = selftest()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
