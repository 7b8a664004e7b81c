"""Tests of the benchmark itself: public API use, seeding, metrics, checks.

The tiny runs use one cold set-up process, two arcs rows and smaller,
unbatched descent inputs to stay quick.
"""

import ast
import dataclasses
import importlib
import json

import numpy as np
import pytest

from choreobench import ROOT, bench, calibrate, layers, trace, workloads

BENCH = ROOT / "bench"
FAST_ARCS = {key: workloads.ARC_ANGLES[key] for key in (("T", "nu2"), ("T", "nu5"))}


def _sources():
    return sorted(p for p in BENCH.rglob("*.py") if "tests" not in p.relative_to(BENCH).parts)


def _chain(node):
    """``a.b.c`` as ["a", "b", "c"] when rooted at a plain name, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def _public(name):
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def test_benchmark_uses_only_public_choreo_names():
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "choreo":
                        assert alias.name == "choreo" and alias.asname is None, path
                        modules["choreo"] = "choreo"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "choreo":
                assert node.level == 0 and all(map(_public, node.module.split("."))), path
                for alias in node.names:
                    assert _public(alias.name), (path, alias.name)
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if not chain or chain[0] not in modules:
                continue
            obj = importlib.import_module(modules[chain[0]])
            for attr in chain[1:]:
                assert _public(attr) and hasattr(obj, attr), (path, ".".join(chain))
                obj = getattr(obj, attr)


def test_instrumented_names_are_public():
    import setup_probe

    cones = workloads.catalog_cones()
    specs = [s for w in workloads.suite(cones).values() for s in w.nested] + list(setup_probe.NESTED)
    for spec in specs:
        assert not any(part.startswith("_") for part in spec.split(".")), spec
        owner, obj = trace.resolve(spec)
        assert callable(obj), spec


def test_instrument_records_nested_calls_and_restores():
    from choreo import estimates

    original = estimates.zeta
    tracer = trace.Tracer()
    with trace.instrument(tracer, ("estimates.zeta",)):
        tracer.call("outer", estimates.zeta, "T", 1.3, 1)
    assert estimates.zeta is original
    assert [s[0] for s in tracer.spans] == ["outer", "estimates.zeta"]
    assert tracer.spans[1][3] == 0


@pytest.fixture(scope="module")
def suite():
    return workloads.suite(workloads.catalog_cones())


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", ["certify", "arcs", "descent"])
def test_same_seed_gives_same_inputs(suite, name):
    w = suite[name]
    for index in (0, 1, 2):
        assert _same(w.make_pass(7, index), w.make_pass(7, index))
    assert not _same(w.make_pass(7, 1), w.make_pass(8, 1))
    rows = sorted(spec["row"] for spec in w.make_pass(7, 1))
    assert rows == sorted(workloads.ARC_ANGLES if name == "arcs" else workloads.CATALOG)


def test_descent_sizes_cover_both_classes_per_group(suite):
    specs = suite["descent"].make_pass(3, 1)
    for tag in ("T", "O", "I"):
        ns = [s["n"] for s in specs if s["row"][0] == tag]
        assert min(ns) < workloads.SIZE_SPLIT <= max(ns), (tag, ns)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == ["certify", "arcs", "descent"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    want = [(m.name, m.unit) for m in layers.layer_metrics()] + list(layers.OVERHEAD_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == want


def test_calibration_scales_by_the_nearest_kernel_samples():
    cal = calibrate.Calibrator()
    cal.samples = [0.010] * 5 + [0.005] * 5
    assert cal.scale(1) == pytest.approx(calibrate.REFERENCE_MS / 10.0)
    assert cal.scale(8) == pytest.approx(calibrate.REFERENCE_MS / 5.0)
    assert cal.mark() == 10 and len(cal.samples) == 11


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "ARC_ANGLES", FAST_ARCS)
    monkeypatch.setattr(workloads, "N_MAX", 1536)
    monkeypatch.setattr(workloads, "BATCH", 1)


@pytest.mark.parametrize("name", ["certify", "arcs", "descent"])
def test_tiny_run_emits_every_end_to_end_metric(tiny, name):
    out = bench.run(name, seed=5, seconds=0.01, trace=False)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(bench.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert out["details"]["failed_ratio"] == 0.0
    json.dumps(result)


def test_tiny_traced_run_emits_every_per_layer_metric(tiny):
    out = bench.run("certify", seed=5, seconds=0.01, trace=True)
    result = out["result"]
    assert result["correct"], out["details"]["failures"]
    want = [(m.name, m.unit) for m in layers.layer_metrics()] + list(layers.OVERHEAD_METRICS)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["estimates.zeta.calls"] == 3.0  # a fresh exponent misses the cache
    assert values["homotopy.min_total_angle.arc_count"] == 8.0  # 4 + 4 arcs
    assert values["action.SymmetryReduction.node_images.calls"] == 2.0
    json.dumps(result)


def _corrupt_bound(original):
    return lambda cone: 0.0


def _corrupt_angle(original):
    def corrupted(cone):
        result = original(cone)
        return dataclasses.replace(result, total_angle=result.total_angle + 1e-3)

    return corrupted


def _corrupt_gradient(original):
    return lambda loop, cone, epsilon=None: 1.01 * original(loop, cone, epsilon)


@pytest.mark.parametrize(
    "name, module, attr, corrupt",
    [
        ("certify", "estimates", "test_loop_action_bound", _corrupt_bound),
        ("arcs", "homotopy", "min_total_angle", _corrupt_angle),
        ("descent", "action", "gradient", _corrupt_gradient),
    ],
)
def test_corrupted_result_counts_as_failed(tiny, monkeypatch, name, module, attr, corrupt):
    mod = importlib.import_module(f"choreo.{module}")
    monkeypatch.setattr(mod, attr, corrupt(getattr(mod, attr)))
    out = bench.run(name, seed=5, seconds=0.01, trace=False)
    result = out["result"]
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert out["details"]["failed_ratio"] == result["failed"] / result["attempted"] > 0
