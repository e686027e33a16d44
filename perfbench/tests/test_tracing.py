import json

import numpy as np
import pytest

import run
import tracing
from tracing import Span, Tracer, layer_metrics, self_times
from stdlens import baselines, forensics


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, None, "metrics.run_experiment", 0, 0.0, 10.0),
        Span(1, 0, "engine.local_update", 0, 1.0, 3.0),
        Span(2, 1, "detection.detector_loss_and_grad", 0, 1.5, 2.0),
        Span(3, 0, "engine.local_update", 0, 2.5, 5.0),   # overlaps span 1
        Span(4, 0, "engine.fedavg_aggregate", 0, 9.0, 12.0),  # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 9.0))
    assert selfs[1] == pytest.approx(2.0 - 0.5)
    assert selfs[2] == pytest.approx(0.5)
    assert selfs[3] == pytest.approx(2.5)
    assert selfs[4] == pytest.approx(3.0)


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        Span(0, None, "forensics.observe_contributions", 0, 0.0, 4.0, {"contributions": 6}),
        Span(1, 0, "forensics.window_step", 0, 1.0, 4.0),
        Span(2, 1, "forensics.spatial_project", 0, 1.0, 2.0,
             {"rows": 3, "dim": 4, "flops_computed": 3 * 16 + 64}),
        Span(3, None, "baselines.defense_spatial_smaller_cluster", 0, 5.0, 6.0),
        Span(4, 3, "forensics.spatial_project", 0, 5.0, 5.5,
             {"rows": 5, "dim": 8, "flops_computed": 5 * 64 + 512}),
    ]
    m = layer_metrics(spans, op_seconds=10.0)
    assert m["forensics.spatial_project.calls"] == 2
    assert m["forensics.spatial_project.rows"] == 8
    assert m["forensics.spatial_project.dim"] == 6.0
    assert m["forensics.spatial_project.flops_computed"] == 112 + 832
    assert m["forensics.window_step.self_s"] == pytest.approx(2.0)
    assert m["forensics.observe_contributions.self_s"] == pytest.approx(1.0)
    # only the projection under window_step counts as stdlens work
    assert m["forensics.rows_per_contribution"] == pytest.approx(3 / 6)
    assert m["trace_coverage"] == pytest.approx(5.0 / 10.0)
    assert m["engine.local_update.calls"] == 0
    assert set(m) | {"trace_overhead_ratio"} == set(tracing.metric_units())


def test_install_patches_imported_copies_and_uninstall_restores():
    original = forensics.spatial_project
    tracer = Tracer()
    tracer.install()
    try:
        assert baselines.spatial_project is forensics.spatial_project is not original
        tracer.op = 7
        pts = np.random.default_rng(0).standard_normal((12, 2))
        forensics.cluster_2d(pts, "kmeans", 2, seed=1)
    finally:
        tracer.uninstall()
    assert baselines.spatial_project is forensics.spatial_project is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["forensics.cluster_2d", "forensics.kmeans"]
    assert tracer.spans[1].parent == tracer.spans[0].id
    assert tracer.spans[1].attrs == {"points": 12}
    assert {s.op for s in tracer.spans} == {7}


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    xs = list(range(1, 101))
    assert run.tail(xs) == (90, 90.0)     # 10 samples above the 90th value


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
