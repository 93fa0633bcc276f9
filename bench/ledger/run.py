#!/usr/bin/env python3
"""Build the performance ledger and run it.

One workload, as BENCHMARK.json's command runs it (the last line of
standard output is the result object):

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in a fresh process, with a table of the metrics,
their units, sample counts and regression bounds; --traced adds the
per-layer run of each, and --out writes the whole record (git rev,
config digest, clock and metrics per workload) plus the traced runs'
timelines to a directory:

    python3 bench/ledger/run.py [--seed N] [--seconds S] [--traced] [--out DIR]

The baseline: every workload at N seeds from --seed (default 1), with
the median and quartiles of each end-to-end metric and its spread
against the bound:

    python3 bench/ledger/run.py --baseline N [--seed N] [--out bench/ledger/baseline.json]

Run from the root of the repository.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "bench", "ledger", "ledger.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "bench/ledger/ledger.exe"],
        stdout=sys.stderr, env=env)
    if r.returncode != 0:
        sys.exit("ledger: build failed")


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, out=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if out:
        cmd += ["--out", out]
    r = subprocess.run(cmd, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"ledger: {workload} printed nothing (exit {r.returncode})\n{r.stderr}")
    result = json.loads(lines[-1])
    return r.returncode, lines[:-1], result


def check_units(bench, kind, result, workload):
    want = {m["name"]: m["unit"] for m in bench[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        sys.exit(f"ledger: {workload} metrics disagree with BENCHMARK.json {kind}: {got} vs {want}")


def digest():
    h = hashlib.sha256()
    for path in ["BENCHMARK.json"] + sorted(
            os.path.join(HERE, f) for f in os.listdir(HERE)
            if f.endswith((".ml", ".py")) or f == "dune"):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return r.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def all_workloads(args, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    record = {"git_rev": git_rev(), "config_digest": digest(), "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        rc, table, result = run_one(name, args.seed, args.seconds, 0)
        check_units(bench, "end_to_end", result, name)
        ok = ok and rc == 0 and result["correct"]
        samples = {}
        for line in table:
            parts = line.split()
            if len(parts) == 4 and parts[3].startswith("n="):
                samples[parts[0]] = parts[3]
            else:
                print(line)
        print(f"  {'metric':26s} {'value':>14s} {'unit':7s} {'samples':>9s}  bound (better)")
        for k, v in result["metrics"].items():
            b = bounds[k]
            print(f"  {k:26s} {v['value']:14.4f} {v['unit']:7s} {samples.get(k, ''):>9s}"
                  f"  {b['bound']:.2f} ({b['better']})")
        print(f"  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        entry = {"clock": "wall" if name.startswith("wall") else "virtual",
                 "correct": result["correct"], "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": result["metrics"]}
        if args.traced:
            rc, table, traced = run_one(name, args.seed, args.seconds, 1, args.out)
            check_units(bench, "per_layer", traced, name)
            ok = ok and rc == 0 and traced["correct"]
            print("\n".join(line for line in table if not line.startswith(name)))
            entry["per_layer"] = traced["metrics"]
        record["workloads"][name] = entry
    if args.out:
        with open(os.path.join(args.out, "ledger.json"), "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print(json.dumps(record))
    return 0 if ok else 1


def baseline(args, bench):
    seeds = list(range(args.seed, args.seed + args.baseline))
    out = {"git_rev": git_rev(), "config_digest": digest(), "seconds": args.seconds,
           "seeds": seeds, "workloads": {}}
    worst = []
    for w in bench["workloads"]:
        name = w["name"]
        values = {}
        for seed in seeds:
            rc, _, result = run_one(name, seed, args.seconds, 0)
            check_units(bench, "end_to_end", result, name)
            if rc != 0 or not result["correct"] or result["failed"]:
                sys.exit(f"ledger: {name} seed {seed} failed: {result}")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        stats = {}
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": m["bound"], "values": vs}
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- over bound/3"
            if flag:
                worst.append((name, m["name"]))
            print(f"{name:18s} {m['name']:24s} median {med:12.5g}  spread {spread:7.4f}"
                  f"  bound {m['bound']:.2f}{flag}", flush=True)
        out["workloads"][name] = stats
    path = args.out or os.path.join(HERE, "baseline.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 1 if worst else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    p.add_argument("--baseline", type=int, metavar="N")
    args = p.parse_args()
    build()
    if args.workload:
        argv = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        if args.out:
            argv += ["--out", args.out]
        sys.stdout.flush()
        os.execv(EXE, argv)
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.baseline:
        return baseline(args, bench)
    return all_workloads(args, bench)


if __name__ == "__main__":
    sys.exit(main())
