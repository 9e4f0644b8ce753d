#!/usr/bin/env python3
"""Checks of the benchmark against its contract, run from the repository root.

    python3 perf/check.py smoke
        Runs every workload of BENCHMARK.json at 1/50 size, untraced and traced,
        and checks that the last line of output is the result object and names
        exactly the end-to-end (untraced) or per-layer (traced) metrics that
        BENCHMARK.json lists, with the same units.

    python3 perf/check.py repeat N [--workloads a,b] [--order alternate|sets]
        Runs the untraced pass 2xN times per workload as two labelled sets, each
        run with another seed, and prints for every end-to-end metric both
        medians, the quartiles, the spread (interquartile distance as a share of
        the median) and how much worse the second median is than the first,
        against the metric's bound. Exits non-zero on any violation. `alternate`
        interleaves the sets (A B A B ...); `sets` runs all of A, then all of B.

    python3 perf/check.py trace <target dir>/perf-trace/trace-<workload>.json
        Reads a trace file of the traced pass and prints, per span name, the
        count, the total time and the self time: a span's duration minus the
        part of it its child spans cover.

`smoke` and `repeat` use the `command` of BENCHMARK.json exactly as the driver does.
"""

import json
import os
import statistics
import subprocess
import sys
import time

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(contract, workload, seed, seconds, trace, extra=()):
    command = contract["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    start = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)}\nexited with {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{' '.join(command)} printed nothing")
    return json.loads(lines[-1]), elapsed


def smoke(contract):
    problems = []
    for workload in (w["name"] for w in contract["workloads"]):
        for trace, listed in ((0, contract["end_to_end"]), (1, contract["per_layer"])):
            result, elapsed = run(contract, workload, 1, 0.5, trace, ["--smoke"])
            where = f"{workload} --trace {trace}"
            known = len(problems)
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys are {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    problems.append(f"{where}: {name}: BENCHMARK.json says {want.get(name)}, the run {got.get(name)}")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{where}: {name} has no numeric value")
                elif trace == 0 and m["value"] == 0:
                    problems.append(f"{where}: end-to-end metric {name} is 0")
            print(f"{'ok  ' if len(problems) == known else 'BAD '}{where}  ({elapsed:.1f} s)")
    if problems:
        sys.exit("\n".join(problems))
    print("smoke: every workload reports exactly the metrics BENCHMARK.json lists")


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def repeat(contract, n, workloads, order):
    print(f"nproc={os.cpu_count()} load_1m={os.getloadavg()[0]:.2f} runs_per_set={n} order={order}")
    seconds = contract["run_seconds"]
    violations = []
    for workload in workloads:
        sets = {"A": [], "B": []}
        labels = ["A", "B"] * n if order == "alternate" else ["A"] * n + ["B"] * n
        for i, label in enumerate(labels):
            result, elapsed = run(contract, workload, 1000 + i, seconds, 0)
            if not result["correct"]:
                violations.append(f"{workload}: seed {1000 + i} failed {result['failed']} ops")
            sets[label].append(result["metrics"])
            print(f"  {workload} {label}{len(sets[label])} seed={1000 + i} {elapsed:.1f} s", flush=True)
        print(f"{workload}: load_1m={os.getloadavg()[0]:.2f}")
        print(f"  {'metric':<24}{'median A':>14}{'median B':>14}{'spread A':>10}{'spread B':>10}{'B worse':>10}{'bound':>8}")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for label, runs in sets.items():
                values = [r[name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                stats[label] = (med, (q3 - q1) / med)
            gap = worse_by(metric, stats["A"][0], stats["B"][0])
            flags = []
            if name != "setup_s" and max(stats["A"][1], stats["B"][1]) > bound:
                flags.append("SPREAD")
            if gap > bound:
                flags.append("GAP")
            print(
                f"  {name:<24}{stats['A'][0]:>14.5g}{stats['B'][0]:>14.5g}"
                f"{stats['A'][1]:>10.2%}{stats['B'][1]:>10.2%}{gap:>10.2%}{bound:>8.0%}  {' '.join(flags)}"
            )
            violations += [f"{workload}/{name}: {flag}" for flag in flags]
    if violations:
        sys.exit("violations:\n" + "\n".join(violations))
    print("repeat: every spread and every gap is within its bound")


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def trace(path):
    with open(path) as f:
        doc = json.load(f)
    children = {}
    for span in doc["spans"]:
        children.setdefault(span["parent"], []).append(span)
    rows = {}
    for span in doc["spans"]:
        start, end = span["start_ns"], span["end_ns"]
        inside = [(max(c["start_ns"], start), min(c["end_ns"], end)) for c in children.get(span["id"], [])]
        row = rows.setdefault(span["name"], [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered([i for i in inside if i[0] < i[1]])
    print(f"{doc['workload']} seed={doc['seed']}: {len(doc['spans'])} spans")
    print(f"  {'span':<24}{'count':>10}{'total ms':>12}{'self ms':>12}")
    for name, (count, total, self_ns) in sorted(rows.items()):
        print(f"  {name:<24}{count:>10}{total / 1e6:>12.1f}{self_ns / 1e6:>12.1f}")
    for snap in doc["counters"]:
        print(f"  counters at {snap['label']} ({snap['at_ns'] / 1e6:.0f} ms): {snap['values']}")


def main(argv):
    if argv[:1] == ["smoke"]:
        smoke(load_contract())
    elif argv[:1] == ["repeat"] and len(argv) >= 2:
        contract = load_contract()
        names = [w["name"] for w in contract["workloads"]]
        order = "alternate"
        for flag, value in zip(argv[2::2], argv[3::2]):
            if flag == "--workloads":
                names = value.split(",")
            elif flag == "--order" and value in ("alternate", "sets"):
                order = value
            else:
                sys.exit(__doc__)
        repeat(contract, int(argv[1]), names, order)
    elif argv[:1] == ["trace"] and len(argv) == 2:
        trace(argv[1])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
