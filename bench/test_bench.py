"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_cogkit()

import cogkit.io  # noqa: E402
from cogkit import immersions, presentations, scwols  # noqa: E402

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.2


def smoke(name: str, trace: bool = False) -> dict:
    return run.run_workload(name, None, SECONDS, trace, smoke=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_every_oracle(name):
    report = smoke(name)
    assert report["correct"] and report["failed"] == 0, report["errors"]
    assert report["attempted"] >= len(report["errors"]) + 1
    metrics = report["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_traced_smoke_run_reports_every_layer_metric():
    report = smoke("corpus-local", trace=True)
    assert report["correct"], report["errors"]
    metrics = report["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["presentations.abelianization.s"]["value"] > 0
    assert metrics["presentations.abelianization.calls"]["value"] == report["items"]
    # the layers account for the traced pass: self times add up to it
    detail = report["detail"]
    assert detail["self_sum_s"] == pytest.approx(detail["traced_wall_s"], rel=0.05)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


def _wrong_coset(original):
    def every_coset_injective(phi):
        return {key: True for key in original(phi)}

    return every_coset_injective


def _drifting_dumps(original):
    calls = []

    def dumps(payload):
        calls.append(1)
        return original(payload) + " " * len(calls)

    return dumps


# a deliberately wrong verdict per workload: (workload, module, attribute, fake)
WRONG = [
    ("corpus-local", presentations, "abelianization", lambda original: lambda P: [999]),
    ("morphism-immersion", immersions, "check_coset_condition", _wrong_coset),
    ("scale-ladder", scwols, "scwol_isomorphic", lambda original: lambda *a, **k: None),
    ("cli-batch", cogkit.io, "dumps", _drifting_dumps),
]


@pytest.mark.parametrize("name, module, attr, fake", WRONG, ids=[w[0] for w in WRONG])
def test_wrong_verdict_raises_fail_ratio(monkeypatch, name, module, attr, fake):
    monkeypatch.setattr(module, attr, fake(getattr(module, attr)))
    report = smoke(name)
    assert not report["correct"]
    assert report["failed"] / report["attempted"] > 0
