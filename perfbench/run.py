#!/usr/bin/env python3
"""Outside-in benchmark of the multicred pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload standard --seed 1 --seconds 10 --trace 0

It builds the workload's inputs from ``--seed`` (set-up, timed on its own
and repeated), then drives the ``multicred`` CLI (``python3 -m
multicred.cli``) one command at a time until ``--seconds`` have been
measured, checking every command's output. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
commands under the span tracer and reports the per-layer metrics.
Workloads and metrics are described in perfbench/README.md. Everything the
run writes goes under ``.perfbench-work/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

# One BLAS thread, here and in every child, set before numpy is loaded: the
# load comes from one process, and at batch 16 the matrices are too small
# for a second thread to pay off.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.dont_write_bytecode = True  # keep perfbench/ free of caches

import harness  # noqa: E402  (after the BLAS pinning)
from harness import BENCH_DIR, SRC, WORK, Bench, median, per_layer_spec, tree_digest  # noqa: E402

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "prepare_s": "s",
    "train_s": "s",
    "score_users_per_s": "users/s",
    "peak_rss_mb": "MB",
    "macro_f1": "ratio",
}
WORKLOADS = ("standard", "bulk-score", "skewed-prepare")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode
        blas = "unknown"
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(harness.ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit or None,
        "source_digest": tree_digest(SRC),
        "bench_digest": tree_digest(BENCH_DIR, "*.py"),  # code only, not docs or results
    }


def print_layers(b: Bench) -> None:
    """Per-layer medians, then the tracing overhead per command against the
    last untraced run of the same workload, seed and code, if there is one."""
    for name, values in b.layers.items():
        print(f"  {name:<48} {median(values):14.6f}")
    untraced = WORK / "results" / f"{b.workload}-seed{b.seed}-trace0.json"
    if not untraced.is_file():
        return
    doc = json.loads(untraced.read_text("utf-8"))
    if doc["environment"]["code"] != b.code:
        return
    for command, walls in b.walls.items():
        plain = doc["command_walls"].get(command)
        if plain:
            print(f"  tracing overhead {command:<9} {median(walls) / median(plain) - 1.0:+.1%}")


def save_results(b: Bench, env: dict, result: dict) -> None:
    out = WORK / "results" / f"{b.workload}-seed{b.seed}-trace{int(b.trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "workload": b.workload, "seed": b.seed, "seconds": b.seconds,
        "environment": env, "input_digests": b.input_digests,
        "input_stats": b.input_stats,
        "samples": b.samples, "command_walls": b.walls, "command_cpu": b.cpu,
        "layers": b.layers,
        "problems": b.problems, "result": result,
    }, indent=2, sort_keys=True), "utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "multicred" / "cli.py").is_file():
        print(f"perfbench: no multicred sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from workloads import RUNNERS

    env = environment()
    # Outputs are compared across runs only when program and benchmark are the same.
    env["code"] = code = hashlib.sha256(
        (env["source_digest"] + env["bench_digest"]).encode()).hexdigest()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {json.dumps(env, sort_keys=True)}")
    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace), code)
    RUNNERS[args.workload](b)

    if args.trace:
        print_layers(b)
        metrics = {m["name"]: {"value": median(b.layers[m["name"]]), "unit": m["unit"]}
                   for m in per_layer_spec()}
    else:
        for name, values in b.samples.items():
            print(f"  {name:<18} median {median(values):.6g} over n={len(values)}")
        metrics = {name: {"value": median(b.samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        metrics["peak_rss_mb"]["value"] = b.peak_rss_mb
    for problem in b.problems:
        print(f"  problem: {problem}")
    b.save_reference()
    result = {"correct": not b.problems, "attempted": b.attempted, "failed": b.failed,
              "metrics": metrics}
    save_results(b, env, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
