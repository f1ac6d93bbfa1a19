#!/usr/bin/env python3
"""Makes a trajectory point from saved benchmark results, or compares with one.

Every run of ``run.py`` saves its result under
``.perfbench-work/results/<workload>-seed<n>-trace<t>.json``. A point is
made from ten untraced runs per workload and one traced run, all of one
code version, and written with ``write``; ``compare`` sets the medians of
a later set of runs against a point's, each against its bound in
BENCHMARK.json. Run from the repository root:

    for w in standard bulk-score skewed-prepare; do
      for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload $w --seed $s --seconds 5 --trace 0
      done
      python3 perfbench/run.py --workload $w --seed 1 --seconds 5 --trace 1
    done
    python3 perfbench/trajectory.py write perfbench/results/BENCH_1.json \\
        --point 1 --what "what the measured commit changed"
    python3 perfbench/trajectory.py compare perfbench/results/BENCH_0.json

Both take ``--seeds A-B`` (default 1-10) to pick the untraced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS = Path.cwd() / ".perfbench-work" / "results"
SPEC = Path.cwd() / "BENCHMARK.json"


def _load(workload: str, seed: int, trace: int) -> dict:
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    if not path.is_file():
        sys.exit(f"trajectory: missing {path}")
    doc = json.loads(path.read_text("utf-8"))
    if not doc["result"]["correct"]:
        sys.exit(f"trajectory: {path} failed its output checks: {doc['problems']}")
    return doc


def _summary(values: list[float], unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values), "unit": unit}


def collect(seeds: range, traced_seed: int | None) -> tuple[dict, dict]:
    """Per workload: every end-to-end metric summarized over ``seeds``, the
    inputs of every seed, and the traced run's metrics and overhead."""
    spec = json.loads(SPEC.read_text("utf-8"))
    environments, workloads = [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {seed: _load(workload, seed, 0) for seed in seeds}
        environments += [doc["environment"] for doc in runs.values()]
        entry = {
            m["name"]: _summary([doc["result"]["metrics"][m["name"]]["value"]
                                 for doc in runs.values()], m["unit"])
            for m in spec["end_to_end"]
        }
        entry["inputs"] = {str(seed): {"digests": doc["input_digests"]}
                           for seed, doc in runs.items()}
        if traced_seed is not None:
            traced, plain = _load(workload, traced_seed, 1), runs.get(traced_seed)
            environments.append(traced["environment"])
            # Only a traced run records the inputs' hash-feature statistics.
            entry["inputs"].setdefault(str(traced_seed), {})["hash_features"] = \
                traced.get("input_stats", {})
            entry[f"traced_seed{traced_seed}"] = {
                name: m["value"] for name, m in traced["result"]["metrics"].items()}
            if plain is not None:
                entry["tracing_overhead"] = {
                    command: statistics.median(walls)
                    / statistics.median(plain["command_walls"][command]) - 1.0
                    for command, walls in traced["command_walls"].items()}
        workloads[workload] = entry
    codes = {env["code"] for env in environments}
    if len(codes) != 1:
        sys.exit(f"trajectory: the runs come from {len(codes)} different code versions")
    return environments[0], workloads


def write(args) -> int:
    env, workloads = collect(args.seeds, args.traced_seed)
    point = {
        "point": args.point,
        "what": args.what,
        "how": (f"python3 perfbench/run.py --workload W --seed S --seconds 5 --trace 0 for "
                f"seeds {args.seeds.start}-{args.seeds.stop - 1}, one run at a time, and "
                f"--trace 1 for seed {args.traced_seed}; then perfbench/trajectory.py write. "
                "median/q1/q3 are statistics.median and statistics.quantiles(n=4) over the "
                "runs' reported values; spread is (q3 - q1) / median."),
        "environment": env,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {args.out}")
    return 0


def compare(args) -> int:
    """Each metric's median against the point's, worse by at most its bound."""
    point = json.loads(Path(args.point_file).read_text("utf-8"))
    _, workloads = collect(args.seeds, None)
    spec = json.loads(SPEC.read_text("utf-8"))
    ok = True
    for workload, entry in workloads.items():
        print(workload)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            old, new = point["workloads"][workload][name]["median"], entry[name]["median"]
            worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
            spread = entry[name]["spread"]
            verdict = "ok" if worse <= bound and (name == "setup_s" or spread <= bound) else "WORSE"
            ok &= verdict == "ok"
            print(f"  {name:<18} {old:12.5g} -> {new:12.5g}  worse by {worse:+7.1%}  "
                  f"spread {spread:6.3f}  bound {bound:.2f}  {verdict}")
    return 0 if ok else 1


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write a trajectory point")
    w.add_argument("out")
    w.add_argument("--point", type=int, required=True)
    w.add_argument("--what", required=True)
    w.add_argument("--traced-seed", type=int, default=1)
    c = sub.add_parser("compare", help="compare saved runs with a trajectory point")
    c.add_argument("point_file")
    for p in (w, c):
        p.add_argument("--seeds", type=_seeds, default=range(1, 11))
    args = parser.parse_args(argv)
    return write(args) if args.command == "write" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
