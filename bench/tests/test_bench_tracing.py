"""The benchmark's tracer. Run: python3 -m pytest bench/tests"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
import tracing as T  # noqa: E402
from photodyne import detection, fields  # noqa: E402
from photodyne.numerics import RngStream, TimeGrid  # noqa: E402


def _chain():
    grid = TimeGrid(0.0, 0.05, 4000)
    stream = RngStream(1, 0)
    path = fields.generate_path(fields.FieldModel(kind="coherent", amplitude=1.0), grid, stream)
    counts = detection.sample_counts(path.intensity(), grid, stream)
    detection.bhd_difference_current(path.intensity(), path.intensity(), grid, 2.0, stream)
    return counts


def test_spans_count_at_the_layer_boundaries_and_uninstall():
    original = fields.generate_path
    tracer = T.Tracer()
    tracer.install()
    try:
        counts = _chain()
    finally:
        tracer.uninstall()
    assert fields.generate_path is original
    names = [s[0] for s in tracer.spans]
    # the BHD draws its two ports with sample_counts: nested, not top level
    assert names.count("detection.counts") == 3
    m = T.layer_metrics(tracer.spans)
    assert m["fields.samples"] == 4000 and m["detection.bhd_samples"] == 4000
    assert m["detection.events"] == counts.n_events
    assert 0.8 < m["detection.thinning_acceptance"] <= 1.0  # constant rate: 1/1.1 kept
    assert m["detection.bhd_s"] >= sum(
        s[2] - s[1] for s in tracer.spans if s[0] == "detection.counts" and s[3] >= 0
    )


def test_rounds_combine_by_median_time_and_first_counts():
    per_round = []
    for _ in range(3):
        tracer = T.Tracer()
        tracer.install()
        try:
            _chain()
        finally:
            tracer.uninstall()
        per_round.append(T.layer_metrics(tracer.spans))
    combined = T.combine_rounds(per_round)
    assert combined["detection.events"] == per_round[0]["detection.events"]
    assert sorted(r["fields.path_s"] for r in per_round)[1] == combined["fields.path_s"]
