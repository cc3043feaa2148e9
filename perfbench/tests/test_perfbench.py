"""Self-tests of the benchmark on tiny instances of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

import layers
import make_reference
import run
import workloads

gk = run.import_gavekit()

SMOKE = workloads.SMOKE


@pytest.fixture(scope="module")
def smoke_reference():
    with tempfile.TemporaryDirectory() as workdir:
        reference, known = make_reference.build_reference(SMOKE, workdir, log=lambda *_: None)
    return reference, known


def smoke_run(workload, reference, known=None, trace=0):
    return run.run(
        workload, seed=3, seconds=0, trace=trace, sizes=SMOKE,
        reference=reference, known_failures=known or {},
    )


def benchmark_metrics(key):
    return {m["name"]: m["unit"] for m in run.load_json(run.BENCHMARK_JSON)[key]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(smoke_reference, workload, trace, key):
    reference, known = smoke_reference
    result, lines = smoke_run(workload, reference, known, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == benchmark_metrics(key)
    info = json.loads(lines[0].split(" ", 1)[1])
    assert info["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in emitted)


def test_tracer_restores_every_binding(smoke_reference):
    reference, known = smoke_reference
    before = (gk.spmv, gk.sparse.spmv, gk.solver.spmv, gk.linalg.Factorization.solve)
    smoke_run("exact-tables", reference, known, trace=1)
    after = (gk.spmv, gk.sparse.spmv, gk.solver.spmv, gk.linalg.Factorization.solve)
    assert before == after
    assert not hasattr(gk.spmv, "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_within_parent_spans(workload):
    probe = run.SpeedProbe()
    tracer = layers.Tracer()
    tracer.install()
    try:
        ops, _, _, _ = run.run_setups(workload, SMOKE, probe, tracer, workloads, layers)
        tracer.reset()
        run.run_passes(ops, 1, 0, 2, probe, tracer, layers)  # untraced, then traced
    finally:
        tracer.uninstall()
    assert any(span.parent is not None for span in tracer.spans)
    for span in tracer.spans:
        assert span.self_s >= -1e-9
        assert span.self_s <= span.duration + 1e-12
        if span.parent is not None:
            assert span.parent.start <= span.start <= span.end <= span.parent.end
    _, total, self_s = tracer.totals()
    for name in total:
        assert 0.0 <= self_s[name] <= total[name] + 1e-9


def test_predicted_layer_split(smoke_reference):
    reference, known = smoke_reference
    exact, _ = smoke_run("exact-tables", reference, known, trace=1)
    inexact, _ = smoke_run("inexact-tables", reference, known, trace=1)
    value = lambda res, name: res["metrics"][name]["value"]  # noqa: E731
    assert value(exact, "linalg.lsqr.calls") == 0
    assert value(exact, "linalg.lu_factorize.calls") > 0
    assert value(exact, "linalg.lu_factorize.fill_nnz") > 0
    assert value(inexact, "linalg.lu_factorize.calls") == 0
    assert value(inexact, "linalg.lsqr.calls") > 0
    assert value(inexact, "linalg.lsqr.iters") >= value(inexact, "linalg.lsqr.calls")
    # one table row is one build_splitting per pass
    assert value(exact, "splittings.build_splitting.calls") == 3 * 2 * 2 * len(SMOKE.tables_m)


def _perturbed(reference, prefix, field, change):
    name = next(n for n in sorted(reference) if n.startswith(prefix))
    entry = dict(reference[name])
    entry[field] = change(entry[field])
    return name, dict(reference, **{name: entry})


@pytest.mark.parametrize(
    "workload, prefix, field, change",
    [
        ("exact-tables", "exact/", "IT", lambda it: it + 1),
        ("inexact-tables", "inexact/", "IT", lambda it: it + 2),
        ("alpha-sweep", "tune/", "alpha", lambda a: round(a + 0.25, 10)),
        ("certify", "certify/", "oracle_lhs", lambda lhs: lhs * (1 + 1e-5)),
    ],
)
def test_perturbed_reference_is_flagged(smoke_reference, workload, prefix, field, change):
    reference, known = smoke_reference
    name, perturbed = _perturbed(reference, prefix, field, change)
    result, lines = smoke_run(workload, perturbed, known)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert any(line.startswith(f"FAIL {name} ") for line in lines)


def test_inexact_iteration_slack_is_one(smoke_reference):
    reference, known = smoke_reference
    _, perturbed = _perturbed(reference, "inexact/", "IT", lambda it: it + 1)
    result, _ = smoke_run("inexact-tables", perturbed, known)
    assert result["correct"]


def test_known_defect_is_reported_not_failed(smoke_reference):
    reference, _ = smoke_reference
    name, perturbed = _perturbed(reference, "certify/", "oracle_lhs", lambda lhs: 2 * lhs)
    op = next(op for op in workloads.setup("certify", None, SMOKE) if op.name == name)
    actual = op.run()["lhs"]
    known = {name: {"lhs": actual, "reason": "seeded for the test"}}
    result, lines = smoke_run("certify", perturbed, known)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert any(line.startswith(f"KNOWN-DEFECT {name} ") for line in lines)
    # a different wrong value is a new failure, not the known defect
    known = {name: {"lhs": actual * 1.5, "reason": "seeded for the test"}}
    result, lines = smoke_run("certify", perturbed, known)
    assert not result["correct"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probes_during_a_call_are_not_counted():
    def steps():  # 10 ms steps, so a probe delays the call instead of shortening it
        for _ in range(120):
            time.sleep(0.01)

    probe = run.SpeedProbe()
    _, quiet = run.timed_call(steps, probe, active=False)
    assert probe.samples == []
    _, probed = run.timed_call(steps, probe, active=True)
    assert len(probe.samples) >= 2  # ticks at 0.5 s and 1.0 s
    assert abs(probed - quiet) < 0.06
