"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _mix(cases):
    """What a seed must not change: commands, families and known answers' shape."""
    return sorted((c["argv"][0], c["name"].rstrip("0123456789"),
                   json.dumps(sorted(c["expect"])), c["expect"]["exit"])
                  for c in cases)


def test_generator_is_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7)
        assert _mix(workloads.generate(w, 7)) == _mix(workloads.generate(w, 8))
    for w in ("finite_q", "sweep_fp"):
        specs = [sorted(c["spec"] for c in workloads.generate(w, s)) for s in (7, 8)]
        assert specs[0] != specs[1]


def test_sweep_mix_is_fixed():
    cases = workloads.generate("sweep_fp", 3)
    assert len(cases) == 120
    assert sum(c["expect"]["exit"] == 1 for c in cases) == 40
    assert [c["name"] for c in cases if "known_defect" in c["expect"]] == ["rowalg2_false_unit"]


def _run_in_process(case, tmp_path):
    from mulhopf import cli
    (tmp_path / case["file"]).write_text(case["spec"])
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(case["argv"] + ["--report", "json"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def test_checker_accepts_the_true_report_and_flags_damage(tmp_path):
    case = next(c for c in workloads.generate("sweep_fp", 5)
                if c["argv"][0] == "classify" and c["expect"]["exit"] == 0)
    code, text = _run_in_process(case, tmp_path)
    assert checker.check_case(case["expect"], code, text) == []

    assert any("exit code" in p for p in checker.check_case(case["expect"], 1, text))

    report = json.loads(text)
    key = sorted(report["tables"]["antipode"])[1]
    value = report["tables"]["antipode"][key]
    coeff, _, bid = value.partition("*")
    p = case["expect"]["tables"]["antipode"]["field"]
    report["tables"]["antipode"][key] = f"{(int(coeff) + 1) % p}*{bid}"
    problems = checker.check_case(case["expect"], code, json.dumps(report))
    assert any(f"table antipode[{key}]" in p for p in problems)

    report = json.loads(text)
    report["tables"]["epsilon"]["e0"] = "0"
    problems = checker.check_case(case["expect"], code, json.dumps(report))
    assert any("table epsilon[e0]" in p for p in problems)


def test_checker_counts_the_false_unit_control(tmp_path):
    case = next(c for c in workloads.generate("sweep_fp", 5) if "known_defect" in c["expect"])
    code, text = _run_in_process(case, tmp_path)
    assert checker.check_case(case["expect"], code, text)


def test_span_self_times_on_a_fake_program():
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]

    tr = Tracer(clock=clock)
    inner = tr.spanned(lambda: None, "inner")
    outer = tr.spanned(lambda: [inner(), inner()], "outer")
    recursive = tr.spanned(lambda k: k and recursive(k - 1), "rec")
    outer()
    recursive(2)
    summary = tr.summary()
    own = tr.self_times()
    assert min(own) >= 0
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == summary["outer"]["total_s"] - summary["inner"]["total_s"]
    # nested spans of one name count once in the total
    rec = [sid for sid, ix in enumerate(tr.name) if tr.names[ix] == "rec"]
    assert len(rec) == 3
    assert summary["rec"]["total_s"] == tr.end[rec[0]] - tr.start[rec[0]]
    assert sum(own) == tr.top_level_s()


def test_traced_pass_on_real_inputs(tmp_path):
    cases = [c for c in workloads.generate("sweep_fp", 2)
             if c["spec"].count("\n") < 40][:12]
    for c in cases:
        (tmp_path / c["file"]).write_text(c["spec"])
    (tmp_path / "cases.json").write_text(json.dumps(
        [{"name": c["name"], "argv": c["argv"]} for c in cases]))
    subprocess.run([sys.executable, str(HERE / "one_pass.py"), "--cases", "cases.json",
                    "--out", "result.json", "--trace"],
                   cwd=tmp_path, env=run.pass_env(), check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    trace = result["trace"]
    assert trace["spans"] > 0
    assert trace["min_self_s"] >= 0
    assert trace["top_level_s"] <= result["wall_s"]
    assert result["probes"] >= 1 and result["speed"] > 0
    assert 0 <= result["probe_s"] < result["wall_s"]
    wall, setup = run.reference_times(result)
    assert 0 < setup < wall
    names = {name for name, _u, _b in layers.PER_LAYER} - {"trace.overhead_ratio"}
    assert names == set(trace["metrics"])
    assert trace["metrics"]["fields.mul_calls"] > 0
    assert trace["metrics"]["cli.unattributed_s"] >= 0
    for row in result["cases"]:
        expect = next(c["expect"] for c in cases if c["name"] == row["name"])
        report = (tmp_path / "reports" / f"{row['name']}.json").read_text()
        problems = checker.check_case(expect, row["exit"], report)
        assert problems == [] or "known_defect" in expect


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_fp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
