"""The comparison and flag logic of scripts/bench_record.py on synthetic
records; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

SPEC = [
    {"name": "study_s", "better": "lower", "bound": 0.25},
    {"name": "samples_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def side(failed=0, **runs):
    """One side of a record: a metric given as a number is one run, or a list of runs."""
    return {
        "end_to_end": {k: bench_record.summary(v if isinstance(v, list) else [v]) for k, v in runs.items()},
        "failed": failed,
    }


def verdicts(rows):
    return {(r["workload"], r["metric"]): r["verdict"] for r in rows}


def rows_by_metric(rows):
    return {(r["workload"], r["metric"]): r for r in rows}


class TestCompare:
    def test_flags_only_metrics_past_their_bound(self):
        before = {"track": side(study_s=2.0, samples_per_s=40_000.0, peak_rss_mb=80.0)}
        after = {"track": side(study_s=2.6, samples_per_s=31_000.0, peak_rss_mb=87.0)}
        rows = rows_by_metric(bench_record.compare(before, after, SPEC))
        assert rows["track", "study_s"]["verdict"] == "flagged"  # 30% slower
        assert rows["track", "study_s"]["worse_by"] == pytest.approx(0.3)
        assert rows["track", "samples_per_s"]["verdict"] == "ok"  # 22.5% fewer
        assert rows["track", "samples_per_s"]["worse_by"] == pytest.approx(0.225)
        assert rows["track", "peak_rss_mb"]["verdict"] == "ok"  # 8.75% more

    def test_gains_are_negative_and_never_flagged(self):
        before = {"library": side(study_s=1.0, samples_per_s=1000.0, peak_rss_mb=85.0)}
        after = {"library": side(study_s=0.5, samples_per_s=3000.0, peak_rss_mb=60.0)}
        rows = bench_record.compare(before, after, SPEC)
        assert all(r["worse_by"] < 0 and r["verdict"] == "ok" for r in rows)

    def test_higher_is_better_metric_past_bound(self):
        rows = bench_record.compare(
            {"identify": side(samples_per_s=40_000.0)}, {"identify": side(samples_per_s=29_000.0)}, SPEC
        )
        assert [(r["metric"], r["verdict"]) for r in rows] == [("samples_per_s", "flagged")]

    def test_failed_studies_are_always_flagged(self):
        rows = bench_record.compare({"track": side(study_s=1.0)}, {"track": side(failed=2, study_s=1.0)}, SPEC)
        failed = rows_by_metric(rows)["track", "failed"]
        assert failed["verdict"] == "flagged" and failed["after"] == 2

    def test_only_shared_workloads_and_metrics(self):
        before = {"identify": side(study_s=1.0), "old": side(study_s=1.0)}
        after = {"identify": side(study_s=1.0, peak_rss_mb=50.0), "new": side(study_s=9.0)}
        rows = bench_record.compare(before, after, SPEC)
        assert [(r["workload"], r["metric"]) for r in rows] == [("identify", "study_s")]

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        # Parent study_s quartiles 1.0 and 1.6 around a median of 1.2: a
        # spread of 50%, twice the 25% bound. Equal medians cannot show the
        # metric unchanged, and a change run of 1.1 is slower than the
        # parent's fastest run.
        parent = [1.0, 1.0, 1.2, 1.6, 1.6]
        rows = rows_by_metric(bench_record.compare(
            {"track": side(study_s=parent)}, {"track": side(study_s=[1.1, 1.2, 1.2, 1.2, 1.3])}, SPEC
        ))
        assert rows["track", "study_s"]["spread"] == pytest.approx(0.5)
        assert rows["track", "study_s"]["verdict"] == "unresolved"

    def test_wide_spread_resolved_when_every_change_run_is_better(self):
        parent = {"study_s": [1.0, 1.0, 1.2, 1.6, 1.6], "samples_per_s": [100.0, 100.0, 150.0, 200.0, 200.0]}
        change = {"study_s": [0.5, 0.6, 0.9, 0.7, 0.8], "samples_per_s": [210.0, 250.0, 300.0, 220.0, 201.0]}
        rows = bench_record.compare({"library": side(**parent)}, {"library": side(**change)}, SPEC)
        assert verdicts(rows) == {("library", "study_s"): "ok", ("library", "samples_per_s"): "ok"}
        # One change run that ties the parent's best leaves it unresolved.
        change["samples_per_s"][-1] = 200.0
        rows = bench_record.compare({"library": side(**parent)}, {"library": side(**change)}, SPEC)
        assert verdicts(rows)["library", "samples_per_s"] == "unresolved"

    def test_worse_past_bound_is_flagged_even_with_wide_spread(self):
        rows = bench_record.compare(
            {"identify": side(study_s=[1.0, 1.0, 1.2, 1.6, 1.6])}, {"identify": side(study_s=[1.6, 1.6, 1.7])}, SPEC
        )
        assert verdicts(rows) == {("identify", "study_s"): "flagged"}

    def test_narrow_spread_equal_medians_are_ok(self):
        rows = bench_record.compare(
            {"track": side(peak_rss_mb=[80.0, 80.5, 81.0])}, {"track": side(peak_rss_mb=[81.0, 81.5, 82.0])}, SPEC
        )
        assert verdicts(rows) == {("track", "peak_rss_mb"): "ok"}


def test_summary_quartiles():
    s = bench_record.summary([3.0, 1.0, 2.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
    assert s["runs"] == [3.0, 1.0, 2.0, 4.0, 5.0]
    one = bench_record.summary([7.0])
    assert one["q1"] == one["median"] == one["q3"] == 7.0


def test_pairs_alternate_which_side_runs_first():
    assert [bench_record.pair_order(i)[0] for i in range(4)] == ["parent", "change", "parent", "change"]


def test_previous_record_is_the_newest_earlier_file(tmp_path):
    assert bench_record.previous_record(tmp_path, 7) is None
    for name in ("BENCH_5.json", "BENCH_12.json", "BENCH_6.json", "BENCH_7.json", "BENCH_x.json", "BENCH_6.json.bak"):
        (tmp_path / name).write_text("{}")
    assert bench_record.previous_record(tmp_path, 7).name == "BENCH_6.json"
    assert bench_record.previous_record(tmp_path, 13).name == "BENCH_12.json"
    assert bench_record.previous_record(tmp_path, 5) is None
