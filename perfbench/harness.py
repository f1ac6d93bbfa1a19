"""Runs multicred commands as child processes and records what they cost.

A :class:`Bench` is one benchmark run. Each ``multicred`` command runs in
its own process, through ``cli_child.py``, so its wall time and peak RSS
are its own; output checks run right after it, and a failed exit or check
counts as one failed operation. Under tracing, the command's span summary
is turned into the per-layer metrics of :data:`LAYERS`.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 2
# The n-th run of a command within a benchmark run gets n * LAYOUT_PAD
# characters of environment filler. Where glibc places (and gives back) the
# heap depends on the sizes of everything allocated before it, the
# environment included: `train` on one input made 0.89M to 2.6M page faults
# (12 to 17 s) as the filler went from 0 to 3,000 characters. The filler
# makes repeated samples of a command draw different layouts, so that their
# median is not one layout's luck.
LAYOUT_PAD = 1000

# Per-layer metrics, per CLI command: (metric, span name, field). Fields
# are those of tracer.summarize; "per_tweet" is calls per input tweet.
_FEATURE_PATH = [
    ("dataset.load_s", "dataset.load_dataset", "s"),
    ("dataset.users", "dataset.load_dataset", "count"),
    ("preprocess.calls", "preprocess.preprocess", "calls"),
    ("preprocess.s", "preprocess.preprocess", "s"),
    ("embedding.embed_text.calls", "embedding.embed_text", "calls"),
    ("embedding.embed_text.s", "embedding.embed_text", "s"),
    ("embedding.embeds_per_tweet", "embedding.embed_text", "per_tweet"),
    ("embedding.sentiment.calls", "embedding.analyze_sentiment", "calls"),
    ("embedding.sentiment.s", "embedding.analyze_sentiment", "s"),
    ("autoencoder.encode.calls", "autoencoder.Autoencoder.encode_batch", "calls"),
    ("autoencoder.encode.rows", "autoencoder.Autoencoder.encode_batch", "rows"),
    ("autoencoder.encode.s", "autoencoder.Autoencoder.encode_batch", "s"),
    ("features.build_user_vector.calls", "features.build_user_vector", "calls"),
    ("features.build_user_vector.s", "features.build_user_vector", "s"),
]


def _network(net: str, steps: tuple[str, ...]) -> list[tuple[str, str, str]]:
    out = [(f"network.{net}.forward.rows", f"network.{net}.forward", "rows")]
    for step in steps:
        out += [(f"network.{net}.{step}.calls", f"network.{net}.{step}", "calls"),
                (f"network.{net}.{step}.s", f"network.{net}.{step}", "s")]
    return out


LAYERS = {
    "prepare": [("cli.s", "cli.run", "s")] + _FEATURE_PATH + [
        ("autoencoder.train_s", "autoencoder.train_autoencoder", "s"),
        *_network("ae", ("forward", "backward", "adam_step")),
        ("features.smote.s", "features.smote", "s"),
        ("features.smote.synthetic", "features.smote", "count"),
        ("features.write_feature_csv.s", "features.write_feature_csv", "s"),
    ],
    "train": [
        ("cli.s", "cli.run", "s"),
        ("features.read_feature_csv.s", "features.read_feature_csv", "s"),
        ("classifier.train.s", "classifier.train", "s"),
        ("classifier.train.self_s", "classifier.train", "self_s"),
        ("classifier.epochs_run", "classifier.train", "count"),
        *_network("clf", ("forward", "backward", "adam_step")),
    ],
    "evaluate": [
        ("cli.s", "cli.run", "s"),
        ("features.read_feature_csv.s", "features.read_feature_csv", "s"),
        ("classifier.evaluate.s", "classifier.evaluate", "s"),
    ],
    "predict": [("cli.s", "cli.run", "s")] + _FEATURE_PATH + _network("clf", ("forward",)),
}
_UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "count", "count": "count",
          "per_tweet": "calls/tweet"}


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, exactly as BENCHMARK.json states it."""
    return [
        {"name": f"{command}.{metric}", "unit": _UNITS[field],
         "better": "higher" if metric == "dataset.users" else "lower"}
        for command, rows in LAYERS.items() for metric, _, field in rows
    ]


def layer_values(command: str, summary: dict, tweets: int | None) -> dict[str, float]:
    """One command's per-layer metrics from its span summary."""
    values = {}
    for metric, span, field in LAYERS[command]:
        row = summary.get(span, {})
        if field == "per_tweet":
            value = row.get("calls", 0) / tweets if tweets else 0.0
        else:
            value = row.get(field, 0)
        values[f"{command}.{metric}"] = value
    return values


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path, pattern: str = "*") -> str:
    """SHA-256 over the relative path and bytes of every file matching
    ``pattern``, in sorted order.

    Bytecode caches are skipped, so a source tree digests the same before
    and after it has been run.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern)
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def user_ids(data_dir: Path) -> list[str]:
    return sorted(p.stem for p in (data_dir / "profiles").glob("*.json"))


def run_child(argv: list[str], log: Path, timeout: float, pad: int = 0) -> tuple[float, int, dict]:
    """Run one process to completion: wall seconds, exit code, and the CPU
    seconds (user, system) and minor page faults it used.

    ``pad`` characters of filler in the environment move the process's
    memory layout (see LAYOUT_PAD). The process is killed once ``timeout``
    seconds have passed.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_LAYOUT_PAD="." * pad)
    with open(log.with_name(log.name + ".out"), "wb") as out, \
            open(log.with_name(log.name + ".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)  # one child at a time
    cpu = {"user_s": after.ru_utime - before.ru_utime, "sys_s": after.ru_stime - before.ru_stime,
           "minflt": after.ru_minflt - before.ru_minflt}
    return wall, proc.returncode, cpu


@dataclass
class Command:
    wall_s: float
    ok: bool


class Bench:
    """One benchmark run: the commands it ran, their samples and problems."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, code: str):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.code = code
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layers: dict[str, list[float]] = defaultdict(list)
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.cpu: dict[str, list[dict]] = defaultdict(list)
        self.peak_rss_mb = 0.0
        self.input_digests: dict[str, str] = {}
        self.input_stats: dict[str, dict] = {}
        # Output digests of this run, and of earlier runs of this seed and code.
        self._seen: dict[str, str] = {}
        self._reference_path = WORK / "reference" / f"{workload}-seed{seed}-{code[:16]}.json"
        self._reference = (json.loads(self._reference_path.read_text("utf-8"))
                           if self._reference_path.is_file() else {})

    def cli(self, *args, tweets: int | None = None, check=None, peak: bool = True) -> Command:
        """Run ``multicred <args>`` once, count it, and check its output.

        ``tweets`` is the input's tweet count, for per-tweet ratios; ``peak``
        says whether the command's RSS counts toward ``peak_rss_mb``.
        """
        args = [str(a) for a in args]
        command = args[0]
        log = self.dir / "logs" / f"{self.attempted:03d}-{command}"
        report = log.with_name(log.name + ".report.json")
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py"),
                *(["--trace"] if self.trace else []), str(report), "--", *args]
        self.attempted += 1
        wall, code, cpu = run_child(argv, log, self.deadline - time.perf_counter(),
                                    pad=LAYOUT_PAD * len(self.walls[command]))
        doc = json.loads(report.read_text("utf-8")) if code == 0 else {}
        rss = doc.get("peak_rss_mb", 0.0)
        problems = [] if code == 0 else [
            f"exit code {code}: "
            + log.with_name(log.name + ".err").read_text("utf-8", "replace")[-300:].strip()
        ]
        if not problems and check is not None:
            try:
                problems = check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{command}: {p}" for p in problems)
        self.walls[command].append(wall)
        self.cpu[command].append(cpu)
        if peak:
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if self.trace and code == 0:
            for name, value in layer_values(command, doc["summary"], tweets).items():
                self.layers[name].append(value)
        print(f"  {command:<9} {wall:8.3f} s (user {cpu['user_s']:.2f} s, sys {cpu['sys_s']:.2f} s)"
              f" {rss:7.1f} MB  {'FAILED' if problems else 'ok'}")
        return Command(wall, not problems)

    def same_bytes(self, key: str, path: Path) -> list[str]:
        """Problems if ``path`` differs from earlier outputs of this seed and code."""
        digest = sha256_file(path)
        for where, earlier in (("this run", self._seen.get(key)),
                               ("an earlier run", self._reference.get(key))):
            if earlier is not None and earlier != digest:
                return [f"{key} bytes differ from {where} with the same seed"]
        self._seen[key] = digest
        return []

    def setup(self, build, dirs: list[Path], steps=()) -> dict:
        """Build the inputs, SETUP_REPEATS times when untraced, timing each build.

        Every build must give byte-identical directories. ``steps`` are the
        measured commands, dealt out over the builds in turn (step j runs
        right after build j % builds), so that the samples of one run span
        its whole length rather than a burst at its end. Traced, there is
        one build and all steps run after it.
        """
        builds = 1 if self.trace else SETUP_REPEATS
        digests, info = [], {}
        for i in range(builds):
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)
            start = time.perf_counter()
            info = build()
            self.samples["setup_s"].append(time.perf_counter() - start)
            digests.append({d.name: tree_digest(d) for d in dirs})
            for step in steps[i::builds]:
                step(info)
        if any(d != digests[0] for d in digests):
            self.problems.append("set-up: inputs differ between builds from one seed")
        self.input_digests = digests[0]
        for name, digest in digests[0].items():
            if self._reference.get("input:" + name, digest) != digest:
                self.problems.append(f"set-up: input {name} differs from an earlier run")
            self._seen["input:" + name] = digest
        print(f"  set-up    {median(self.samples['setup_s']):8.3f} s  inputs {info}")
        return info

    def measuring(self, started: float, last_rep: float) -> bool:
        """Whether to start another repetition of the measured commands."""
        now = time.perf_counter()
        return now - started < self.seconds and self.deadline - now > 1.5 * last_rep + 5.0

    def save_reference(self) -> None:
        """Keep this run's output digests for later runs of the same seed and code."""
        if not self.problems:
            self._reference_path.parent.mkdir(parents=True, exist_ok=True)
            self._reference_path.write_text(
                json.dumps({**self._reference, **self._seen}, sort_keys=True), "utf-8")
