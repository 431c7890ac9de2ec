"""One benchmark pass: every case of a workload through ``mulhopf.cli.main``.

Run in a fresh interpreter from the directory holding the spec files:

    python3 one_pass.py --cases cases.json --out result.json [--trace | --setup-only]

``mulhopf`` must be importable (``run.py`` sets PYTHONPATH to ``src``).  The
pass writes each JSON report to ``reports/<name>.json`` and a result
document with the wall and set-up times, the CPU speed the pass ran at
(``SpeedProbe``), peak RSS, exit codes and report digests.  With
``--trace`` it also wraps the layers listed in ``layers.py`` and adds their
metrics.  With ``--setup-only`` it only imports ``mulhopf`` and resolves
every input, which repeats the set-up without the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import time
import traceback
from fractions import Fraction

# probe_work()'s duration on a 2-vCPU VM (Python 3.11.7) at that VM's top
# speed; times multiplied by SpeedProbe.speed() read as seconds at that speed
PROBE_REF_S = 0.0003
PROBE_EVERY_S = 0.02
_THIRD = Fraction(1, 3)


def probe_work():
    """A fixed slice of work of mulhopf's kind: Fraction arithmetic kept in a dict."""
    acc, table = Fraction(0), {}
    for i in range(1, 49):
        if i % 8 == 0:
            acc = Fraction(0)
        acc = acc * _THIRD + Fraction(i, i + 1)
        table[(i, i % 5)] = acc
    return table


class SpeedProbe:
    """How fast this CPU runs Python, sampled all through the pass.

    On a shared host a vCPU runs up to 1.6 times slower in bursts that last
    seconds, so the wall times of identical passes differ by tens of
    percent (README.md, Steadiness).  Every
    PROBE_EVERY_S a SIGALRM handler times probe_work() in the pass's own
    thread, between two bytecodes of the program, so each sample sees the
    speed the program runs at just then.  Samples are evenly spaced in time,
    so ``speed()``, the mean of PROBE_REF_S / sample, is the time-weighted
    speed relative to the reference.  ``spent`` is the time the samples
    took, which the pass's timers leave out.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, _signum=None, _frame=None):
        # no collection of the program's heap may start inside a sample
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        probe_work()
        took = time.perf_counter() - t
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()  # so that even a pass shorter than one period has a sample
        return False

    def speed(self):
        return statistics.fmean(PROBE_REF_S / s for s in self.samples)


def run_cases(cli, cases):
    rows = []
    os.makedirs("reports", exist_ok=True)
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        code, raised = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(case["argv"] + ["--report", "json"])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                raised = traceback.format_exc()
        text = out.getvalue()
        with open(os.path.join("reports", case["name"] + ".json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        rows.append({"name": case["name"], "exit": code, "raised": raised,
                     "stderr": err.getvalue()[-2000:],
                     "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", required=True)
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.cases, encoding="utf-8") as fh:
        cases = json.load(fh)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        if tracer is not None:
            import_span = tracer.open("setup.import")
        from mulhopf import cli
        import_s = time.perf_counter() - t0 - probe.spent
        if tracer is not None:
            tracer.close(import_span)
            import layers
            layers.install(tracer)

        # set-up = import + resolve_input, as cli.main pays it on every call
        resolve = cli.resolve_input
        resolve_s = [0.0]

        def timed_resolve(text):
            t, spent = time.perf_counter(), probe.spent
            try:
                return resolve(text)
            finally:
                resolve_s[0] += time.perf_counter() - t - (probe.spent - spent)

        cli.resolve_input = timed_resolve
        if args.setup_only:
            rows = []
            for case in cases:
                timed_resolve(case["argv"][1])
        else:
            rows = run_cases(cli, cases)
        wall_s = time.perf_counter() - t0
        probe_s = probe.spent

    result = {
        "wall_s": wall_s,
        "probe_s": probe_s,
        "speed": probe.speed(),
        "probes": len(probe.samples),
        "setup_s": import_s + resolve_s[0],
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cases": rows,
    }
    if tracer is not None:
        tracer.restore()
        own = tracer.self_times()
        result["trace"] = {
            "metrics": layers.metrics(tracer, wall_s),
            "spans": len(own),
            "min_self_s": min(own, default=0.0),
            "top_level_s": tracer.top_level_s(),
            "summary": tracer.summary(),
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
