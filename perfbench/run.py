"""Benchmark of the mulhopf command line: time to verdict, set-up, memory, known answers.

    python3 perfbench/run.py --workload finite_q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

It writes the seeded inputs of one workload (``workloads.py``) into a
scratch directory of the checkout, then runs passes over them, one at a
time, each in a fresh interpreter (``one_pass.py``), for about
``--seconds``.  Every report is checked against its known answer
(``checker.py``).  Each pass also samples the CPU's speed while it runs,
and its times are reported in seconds at a fixed reference speed.  With
``--trace 0`` it prints the end-to-end metrics as medians over the
passes; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics of the traced ones.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("check_s", "s", "lower"),
    ("inputs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("verdict_accuracy", "ratio", "higher"),
)
# a run must end within 180 s; passes get what is left of this
RUN_LIMIT_S = 170.0
# share of --seconds given to set-up-only passes: on a workload whose set-up
# is short (window_z: about 0.1 s) the median over the full passes alone is
# a median of a few short, noisy times
SETUP_SHARE = 0.05


class PassFailed(RuntimeError):
    pass


def pass_env():
    env = {k: v for k, v in os.environ.items() if k not in ("MULHOPF_JOBS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(workdir, deadline, mode=None):
    """One pass in a fresh interpreter; ``mode`` is None, "--trace" or "--setup-only"."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--cases", "cases.json",
           "--out", "result.json"] + ([mode] if mode else [])
    result = workdir / "result.json"
    if result.exists():
        result.unlink()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=pass_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed("pass did not finish within the run's time limit") from None
    if proc.returncode != 0 or not result.exists():
        raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(result.read_text(encoding="utf-8"))
    for row in out["cases"]:
        row["report"] = (workdir / "reports" / f"{row['name']}.json").read_text(encoding="utf-8")
    return out


def reference_times(p):
    """(wall, set-up) of one pass in seconds at the probe's reference speed.

    ``one_pass.SpeedProbe`` measured the speed the pass ran at and the time
    its own samples took; both times leave that time out.
    """
    return (p["wall_s"] - p["probe_s"]) * p["speed"], p["setup_s"] * p["speed"]


def judge(cases, passes):
    """Known-answer verdicts over all passes.

    Returns (errors, failed, unexplained, mismatches): inputs whose report
    differs from its known answer, inputs whose run failed as an operation
    (raised, or exited 2 or 3 unexpectedly), mismatches not covered by a
    documented known defect, and one description per mismatching case.
    """
    expect = {c["name"]: c["expect"] for c in cases}
    errors = failed = unexplained = 0
    mismatches = {}
    for p in passes:
        for row in p["cases"]:
            want = expect[row["name"]]
            if row["raised"] or (row["exit"] in (2, 3) and want["exit"] != row["exit"]):
                failed += 1
            problems = checker.check_case(want, row["exit"], row["report"])
            if row["raised"]:
                problems.append(row["raised"].strip().splitlines()[-1])
            if problems:
                errors += 1
                if "known_defect" not in want:
                    unexplained += 1
                note = f" [known defect: {want['known_defect']}]" if "known_defect" in want else ""
                mismatches[row["name"]] = "; ".join(problems) + note
    return errors, failed, unexplained, mismatches


def digests(passes):
    """Per-report SHA-256 (None if passes disagree) and the combined digest."""
    per = {}
    for p in passes:
        for row in p["cases"]:
            per.setdefault(row["name"], set()).add(row["sha256"])
    single = {name: (next(iter(s)) if len(s) == 1 else None) for name, s in sorted(per.items())}
    lines = "".join(f"{name} {sha}\n" for name, sha in single.items())
    return single, "sha256:" + hashlib.sha256(lines.encode("utf-8")).hexdigest()


def run_workload(workload, seed, seconds, trace):
    cases = workloads.generate(workload, seed)
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        for case in cases:
            if "file" in case:
                (workdir / case["file"]).write_text(case["spec"], encoding="utf-8")
        (workdir / "cases.json").write_text(json.dumps(
            [{"name": c["name"], "argv": c["argv"]} for c in cases]), encoding="utf-8")

        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        plain, traced, setups, took = [], [], [], []
        problem = None
        while True:
            want_trace = trace and len(traced) < len(plain)
            t = time.monotonic()
            try:
                p = run_pass(workdir, deadline, "--trace" if want_trace else None)
            except PassFailed as exc:
                problem = str(exc)
                break
            took.append(time.monotonic() - t)
            (traced if want_trace else plain).append(p)
            if len(plain) == 1 and not trace:
                # as many set-up-only passes as fit in SETUP_SHARE of the run
                until = time.monotonic() + SETUP_SHARE * seconds - p["setup_s"]
                try:
                    while time.monotonic() < until:
                        setups.append(run_pass(workdir, deadline, "--setup-only"))
                except PassFailed as exc:
                    problem = str(exc)
                    break
            # start another pass only if it should end within half a pass of
            # --seconds, so runs last about --seconds whatever the pass length
            ahead = time.monotonic() - start + statistics.median(took) / 2
            if ahead > seconds and (traced or not trace):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass

    everything = plain + traced
    errors, failed, unexplained, mismatches = judge(cases, everything)
    attempted = len(cases) * len(everything)
    if problem is not None:  # every input of the pass that broke off
        attempted += len(cases)
        failed += len(cases)
    per_report, combined = digests(everything)
    deterministic = all(sha is not None for sha in per_report.values())
    summary = {
        "workload": workload, "seed": seed, "inputs": len(cases),
        "passes": len(plain), "traced_passes": len(traced), "setup_passes": len(setups),
        "attempted": attempted, "failed": failed, "errors": errors,
        "error_rate": errors / attempted, "mismatches": mismatches,
        "problem": problem, "deterministic": deterministic,
        "correct": problem is None and unexplained == 0 and failed == 0 and deterministic,
        "digest": combined, "reports": per_report,
        "setup_only_s": [reference_times(p)[1] for p in setups],
        "per_pass": [{k: p[k] for k in ("wall_s", "setup_s", "import_s", "speed", "probes",
                                        "peak_rss_mb")} for p in plain],
    }
    if plain:
        walls, setup_s = zip(*(reference_times(p) for p in plain))
        summary["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_s + tuple(reference_times(p)[1] for p in setups)),
            "check_s": statistics.median(w - s for w, s in zip(walls, setup_s)),
            "inputs_per_s": statistics.median(len(cases) / w for w in walls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "verdict_accuracy": 1.0 - errors / attempted,
        }
        summary["raw_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    if traced:
        names = [name for name, _unit, _better in layers.PER_LAYER]
        # median_low keeps counts whole: they repeat exactly across passes
        layer = {name: statistics.median_low(p["trace"]["metrics"][name] for p in traced)
                 for name in names if name != "trace.overhead_ratio"}
        if plain:
            layer["trace.overhead_ratio"] = (
                statistics.median(reference_times(p)[0] for p in traced)
                / summary["metrics"]["wall_s"] - 1.0)
        summary["layers"] = layer
        summary["trace_check"] = {
            "min_self_s": min(p["trace"]["min_self_s"] for p in traced),
            "top_level_over_wall": max(p["trace"]["top_level_s"] / p["wall_s"] for p in traced),
            "spans": max(p["trace"]["spans"] for p in traced),
        }
        summary["span_summary"] = traced[-1]["trace"]["summary"]
        summary["trace_correct"] = (summary["trace_check"]["min_self_s"] >= 0.0
                                    and summary["trace_check"]["top_level_over_wall"] <= 1.0)
        summary["correct"] = summary["correct"] and summary["trace_correct"]
    return summary


def print_summary(s, trace):
    print(f"workload {s['workload']} seed {s['seed']}: {s['inputs']} inputs, "
          f"{s['passes']} passes, {s['traced_passes']} traced passes, "
          f"{s['setup_passes']} set-up-only passes")
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in s.get("metrics", {}).items():
        print(f"  {name:<18} {value:12.4f} {units[name]}")
    print(f"  {'error_rate':<18} {s['error_rate']:12.4f} ratio"
          f"  ({s['errors']} of {s['attempted']} inputs differ from the known answer)")
    if s["per_pass"]:
        walls = ", ".join(f"{p['wall_s']:.3f}" for p in s["per_pass"])
        speeds = ", ".join(f"{p['speed']:.3f}" for p in s["per_pass"])
        print(f"  raw wall_s per pass: {walls} (median {s['raw_wall_s']:.4f} s)")
        print(f"  CPU speed per pass, relative to the reference: {speeds}")
    for name, text in sorted(s["mismatches"].items()):
        print(f"  mismatch {name}: {text}")
    if s["problem"]:
        print(f"  pass failed: {s['problem']}")
    if not s["deterministic"]:
        print("  reports differ between passes of the same inputs")
    print(f"  report digest {s['digest']}")
    if trace and "layers" in s:
        tc = s["trace_check"]
        print(f"  traced: {tc['spans']} spans, top-level spans cover "
              f"{tc['top_level_over_wall']:.1%} of wall, min self time {tc['min_self_s']:.2e} s")
        print(f"  {'span':<28} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(s["span_summary"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<28} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        lunits = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, value in s["layers"].items():
            print(f"  {name:<34} {value:14.4f} {lunits[name]}")


def metrics_block(s, trace):
    if trace:
        table = s.get("layers", {})
        return {name: {"value": table[name], "unit": unit}
                for name, unit, _ in layers.PER_LAYER if name in table}
    table = s.get("metrics", {})
    return {name: {"value": table[name], "unit": unit}
            for name, unit, _ in END_TO_END if name in table}


def main(argv=None):
    parser = argparse.ArgumentParser(description="mulhopf benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measure for this long per workload (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every pass, mismatch and report digest here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mulhopf" / "cli.py").is_file():
        print(f"error: no mulhopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        s = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(s, bool(args.trace))
        summaries.append(s)
    if args.out:
        Path(args.out).write_text(json.dumps(summaries, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")

    if len(summaries) == 1:
        metrics = metrics_block(summaries[0], bool(args.trace))
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in metrics_block(s, bool(args.trace)).items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
