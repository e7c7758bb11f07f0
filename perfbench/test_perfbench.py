"""Self-tests of the benchmark: tracing is transparent, the checker rejects
corrupted payloads, and every named metric is reported with its unit.

Small problems stand in for the workloads so the tests take seconds:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
from bench_checks import check_round
from bench_trace import summarize

SMALL = {
    "brute": ["count", "--n", "4", "--pattern", "1234", "--method", "brute", "--threads", "2", "--format", "json"],
    "conjecture": ["conjecture", "--p1", "12345", "--p2", "21354", "--max-n", "4", "--threads", "2", "--format", "json"],
    "tree": ["tree", "--pattern", "2143", "--j", "1", "--depth", "3", "--format", "json"],
    "gf-5-1234": ["count", "--method", "gf", "--n", "5", "--pattern", "1234", "--format", "json"],
    "tree-5-2143": ["count", "--method", "tree", "--n", "5", "--pattern", "2143", "--format", "json"],
    "formula-5": ["count", "--method", "formula", "--n", "5", "--pattern", "1234", "--format", "json"],
    "verify": ["verify", "--max-n", "3", "--threads", "2", "--format", "json"],
}


def _without_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [-0-9.e]+', '"wall_time_s": 0', text)


@pytest.fixture(scope="module")
def payloads(tmp_path_factory) -> dict[str, str]:
    work = tmp_path_factory.mktemp("payloads")
    out = {}
    for key, argv in SMALL.items():
        outcome = run.run_cli(argv, work / f"{key}.out")
        assert outcome.code == 0, (key, outcome.text)
        out[key] = outcome.text
    return out


def _check(payloads: dict[str, str], **changed: str) -> dict[str, list[str]]:
    texts = {**payloads, **changed}
    return check_round({k: (SMALL[k], 0, t) for k, t in texts.items()})


def test_tracing_is_transparent(payloads, tmp_path):
    for key, argv in SMALL.items():
        modes = [[]] + ([["--in-process-pool"]] if run.pooled(argv) else [])
        for mode in modes:
            trace_file = tmp_path / f"{key}.json"
            traced = run.run_cli(argv, tmp_path / f"{key}.out", ["--out", str(trace_file), *mode])
            assert traced.code == 0, (key, mode)
            assert _without_wall_time(traced.text) == _without_wall_time(payloads[key]), (key, mode)
            doc = json.loads(trace_file.read_text())
            assert [s[1] for s in doc["spans"]][-1] == "cli.main"
            if mode and key == "brute":
                metrics = summarize([doc], [doc])
                assert metrics["oracle.words_scanned"] == 5 * 2**4 * 24  # one full scan per j
                assert metrics["oracle.scan_useful_ratio"] == pytest.approx(1 / 5)


def test_checker_accepts_real_payloads(payloads):
    assert all(not errs for errs in _check(payloads).values())


def _edit(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def test_checker_rejects_corrupted_payloads(payloads):
    def bump_count(doc):
        doc["rows"][1]["count"] = str(int(doc["rows"][1]["count"]) + 1)

    def swap_counts(doc):  # keeps the total, breaks agreement with other rows
        r = doc["rows"]
        r[1]["count"], r[2]["count"] = r[2]["count"], r[1]["count"]

    def flip_equal(doc):
        doc["rows"][-1]["equal"] = False
        doc["rows"][-1]["count2"] = str(int(doc["rows"][-1]["count2"]) + 1)

    def drop_child(doc):
        doc["tree"]["children"][0]["children"].pop()

    def relabel_child(doc):
        doc["tree"]["children"][0]["label"][1] += 1

    def fail_check(doc):
        doc["rows"][0]["status"] = "fail"

    def wrong_formula(doc):
        doc["rows"][0]["count"] = "1"

    cases = [
        ("brute", bump_count),
        ("gf-5-1234", swap_counts),
        ("formula-5", wrong_formula),
        ("conjecture", flip_equal),
        ("tree", drop_child),
        ("tree", relabel_child),
        ("verify", fail_check),
    ]
    for key, edit in cases:
        errors = _check(payloads, **{key: _edit(payloads[key], edit)})
        assert errors[key], (key, edit.__name__)
    assert _check(payloads, brute=payloads["brute"][:-40])["brute"]
    failed_exit = check_round({"verify": (SMALL["verify"], 1, payloads["verify"])})
    assert failed_exit["verify"] == ["exit code 1"]


@pytest.fixture
def small_workloads(monkeypatch):
    def commands(name, workers):
        keys = {"scan": ("conjecture", "brute"), "verify": ("verify",)}[name]
        return {k: run.with_threads(SMALL[k], workers) for k in keys}

    monkeypatch.setattr(run, "workload_commands", commands)
    monkeypatch.setattr(run, "MIN_SETUP_PROBES", 2)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_unit(small_workloads, trace):
    out = run.run_workload("scan" if trace else "verify", seed=5, seconds=0.1, trace=trace)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(re.match(rf"{re.escape(name)} = \S+ {re.escape(unit)}\b", line)
                   for line in out["lines"]), name
    assert any(line.startswith("error_rate = 0 ratio") for line in out["lines"])
    assert {"python", "affinity_cpus", "start_method", "commit", "seed", "host_probe_mean_ms"} <= set(out["facts"])
    assert out["facts"]["host_probe_mean_ms"] > 0
    if trace:
        assert result["metrics"]["core.kernel_calls"]["value"] > 0
        assert result["metrics"]["oracle.parallel_efficiency"]["value"] > 0
        if out["facts"]["workers"] > 1:
            assert result["metrics"]["oracle.pools_started"]["value"] > 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]
