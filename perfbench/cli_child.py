"""Run one ``multicred`` command in this process and report what it cost.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/cli_child.py [--trace] REPORT_JSON -- <multicred arguments>

The command runs exactly as ``python3 -m multicred.cli <arguments>``
would: through ``multicred.cli.run``. On exit REPORT_JSON gets the
process's own peak RSS, and with ``--trace`` the span summary (see
:func:`tracer.summarize`) and the raw spans, recorded with the tracer
installed and the command inside one root span ``cli.run``. The process
exits with the command's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import tracer


def peak_rss_mb() -> float:
    """This process's own peak RSS, in MB.

    It is read from VmHWM, not ``ru_maxrss``: Linux carries the spawning
    process's peak into a child's ``ru_maxrss`` across exec, so a child of
    a large parent would report the parent's peak.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    trace = argv[:1] == ["--trace"]
    argv = argv[1:] if trace else argv
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    out, args = Path(argv[0]), argv[2:]

    from multicred import cli

    report = {}
    if trace:
        t = tracer.Tracer()
        t.install()
        try:
            code = t.run_span("cli.run", cli.run, args)
        finally:
            t.uninstall()
        report = {"summary": tracer.summarize(t.spans), "spans": t.spans}
    else:
        code = cli.run(args)
    report["peak_rss_mb"] = peak_rss_mb()
    out.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
