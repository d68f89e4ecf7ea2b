"""Self-test of the benchmark at tiny size.

    python3 -m pytest benchmark

Every workload must run without failures and give the same deterministic
counts twice and in the traced phase; a tampered certificate must count as
a failed item; and run.py must refuse to run without the package.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_package()

import workloads  # noqa: E402  (needs the package on the path)
from spans import Tracer  # noqa: E402
from tlmonoid import Step  # noqa: E402

TINY = {
    "lr_certify": lambda: workloads.LRCertify(pool=12, count_set=6),
    "hook_certify": lambda: workloads.HookCertify(pool=12, count_set=6),
    "algebra_dense": lambda: workloads.AlgebraDense(pool=4, count_set=4,
                                                    terms=5),
}


@pytest.fixture(autouse=True)
def few_items(monkeypatch):
    monkeypatch.setattr(run, "MIN_ITEMS", 10)


def both_phases(name, seed=3):
    wl = TINY[name]()
    wl.warm_up()
    inputs = wl.inputs(seed)
    untraced = run.untraced_phase(wl, inputs, 0)
    tracer = Tracer()
    traced, probe = run.traced_phase(wl, inputs, tracer, untraced)
    return wl, untraced, traced, probe, tracer


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_is_correct_and_deterministic(name):
    wl, untraced, traced, probe, tracer = both_phases(name)
    _, untraced2, _, probe2, _ = both_phases(name)
    assert untraced.failures == [] and traced.failures == []
    assert len(untraced.latencies) >= 10
    assert None not in untraced.counts
    assert untraced.counts == traced.counts == untraced2.counts
    assert probe == probe2 and sum(probe.values()) > 0
    assert untraced.keys == untraced2.keys
    items = [s for s in tracer.spans if s[0] == "item"]
    assert len(items) == TINY[name]().count_set
    assert all(t >= 0 for t in tracer.self_times())


def test_metrics_are_the_ones_benchmark_json_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wl, untraced, traced, probe, tracer = both_phases("lr_certify")
    e2e = run.end_to_end(wl, untraced, untraced.scaled, 1.0, 1.0)
    layer = run.per_layer(wl, untraced, traced, probe, tracer, 1.0,
                          {"cli.import_ms": 1.0,
                           "cli.nf_check_roundtrip_ms": 1.0})
    for got, want in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {k: run.unit_of(k) for k in got} == \
            {m["name"]: m["unit"] for m in want}


def test_tampered_certificate_counts_as_a_failed_item(monkeypatch):
    wl = TINY["lr_certify"]()
    wl.warm_up()
    inputs = wl.inputs(3)
    real = workloads.normal_form

    def tampered(w):
        nf, d = real(w)
        if w is inputs[0]:
            k = len(d.steps) // 2
            s = d.steps[k]
            flipped = Step(s.pos, s.rid, not s.forward)
            d = dataclasses.replace(
                d, steps=d.steps[:k] + (flipped,) + d.steps[k + 1:])
        return nf, d

    monkeypatch.setattr(workloads, "normal_form", tampered)
    ph = run.untraced_phase(wl, inputs, 0)
    assert len(ph.latencies) == 10
    assert [i for i, _ in ph.failures] == [0]


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"),
         "--workload", "lr_certify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
