"""The perf regression harness: report schema, comparison semantics,
CLI wiring, and a real single-benchmark smoke run."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.perf.harness import (
    BENCH_NAMES,
    COST_COLUMNS,
    PERF_SCHEMES,
    SCHEMA_VERSION,
    BenchResult,
    _benchmarks,
    compare_reports,
    count_costs,
    load_report,
    result_digest,
    run_benchmarks,
    save_report,
)


def report_with(benches, python=""):
    platform = {"implementation": "CPython", "python": python} \
        if python else {}
    return {"schema_version": SCHEMA_VERSION, "platform": platform,
            "benchmarks": benches}


def bench(rate, digest="d" * 64, accesses=500):
    return {"accesses": accesses, "wall_seconds": accesses / rate,
            "accesses_per_sec": rate, "digest": digest, "repeats": 3}


class TestBenchmarkTable:
    def test_names_cover_all_schemes(self):
        assert "access_loop" in BENCH_NAMES
        assert "fig10_quick" in BENCH_NAMES
        assert "serve_cache_hit" in BENCH_NAMES
        for scheme in PERF_SCHEMES:
            assert f"scheme:{scheme}" in BENCH_NAMES

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            _benchmarks(("no_such_bench",))

    def test_selection_filters(self):
        rows = _benchmarks(("access_loop", "fig10_quick"))
        assert [name for name, _, _ in rows] == ["access_loop",
                                                 "fig10_quick"]


class TestResultDigest:
    def test_key_order_is_canonicalised(self):
        assert result_digest({"a": 1, "b": 2}) \
            == result_digest({"b": 2, "a": 1})

    def test_content_changes_digest(self):
        assert result_digest({"a": 1}) != result_digest({"a": 2})


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        report = report_with({"access_loop": bench(1000.0)})
        path = tmp_path / "BENCH_perf.json"
        save_report(report, path)
        assert load_report(path) == report

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"schema_version": 999, "benchmarks": {}}))
        with pytest.raises(ConfigError, match="schema version"):
            load_report(path)

    def test_missing_benchmarks_table_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ConfigError, match="benchmarks"):
            load_report(path)


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = report_with({"a": bench(1000.0), "b": bench(2000.0)})
        code, lines = compare_reports(report, report)
        assert code == 0
        assert all(line.startswith("OK") for line in lines)

    def test_faster_candidate_passes(self):
        code, _ = compare_reports(report_with({"a": bench(1000.0)}),
                                  report_with({"a": bench(2600.0)}))
        assert code == 0

    def test_small_slowdown_within_threshold_passes(self):
        code, lines = compare_reports(report_with({"a": bench(1000.0)}),
                                      report_with({"a": bench(950.0)}))
        assert code == 0
        assert lines[0].startswith("OK")

    def test_regression_beyond_threshold_fails(self):
        code, lines = compare_reports(report_with({"a": bench(1000.0)}),
                                      report_with({"a": bench(800.0)}))
        assert code == 1
        assert lines[0].startswith("REGRESSED")

    def test_advisory_downgrades_regression_to_warning(self):
        code, lines = compare_reports(report_with({"a": bench(1000.0)}),
                                      report_with({"a": bench(800.0)}),
                                      advisory=True)
        assert code == 0
        assert lines[0].startswith("ADVISORY")

    def test_digest_mismatch_fails_even_in_advisory_mode(self):
        """The byte-identical contract is not advisory: a digest change
        means the optimization altered simulation behaviour."""
        code, lines = compare_reports(
            report_with({"a": bench(1000.0, digest="a" * 64)}),
            report_with({"a": bench(5000.0, digest="b" * 64)}),
            advisory=True)
        assert code == 1
        assert lines[0].startswith("DIGEST")

    def test_missing_benchmark_fails(self):
        code, lines = compare_reports(report_with({"a": bench(1000.0)}),
                                      report_with({}))
        assert code == 1
        assert lines[0].startswith("MISSING")

    def test_new_benchmark_is_ignored(self):
        code, lines = compare_reports(
            report_with({"a": bench(1000.0)}),
            report_with({"a": bench(1000.0), "b": bench(1.0)}))
        assert code == 0
        assert any(line.startswith("NEW") for line in lines)

    def test_custom_threshold(self):
        base = report_with({"a": bench(1000.0)})
        cand = report_with({"a": bench(850.0)})
        assert compare_reports(base, cand, threshold=0.20)[0] == 0
        assert compare_reports(base, cand, threshold=0.10)[0] == 1


def counted(rate, calls, **overrides):
    row = bench(rate)
    row.update(dict.fromkeys(COST_COLUMNS, 1.0), calls_per_access=calls)
    row.update(overrides)
    return row


class TestCompareCosts:
    def test_equal_or_lower_costs_pass(self):
        base = report_with({"a": counted(1000.0, 40.0)})
        for calls in (40.0, 39.5):
            code, lines = compare_reports(
                base, report_with({"a": counted(1000.0, calls)}))
            assert code == 0
            assert not any(line.startswith("COST") for line in lines)

    def test_rising_cost_fails_even_in_advisory_mode(self):
        code, lines = compare_reports(
            report_with({"a": counted(1000.0, 40.0)}),
            report_with({"a": counted(5000.0, 40.000001)}),
            advisory=True)
        assert code == 1
        assert any(line.startswith("COST") and "calls_per_access" in line
                   for line in lines)

    def test_each_column_is_gated(self):
        for column in COST_COLUMNS:
            base = report_with({"a": counted(1000.0, 40.0)})
            cand = report_with({"a": counted(1000.0, 40.0,
                                             **{column: 50.0})})
            assert compare_reports(base, cand)[0] == 1, column

    def test_column_missing_from_candidate_fails(self):
        code, lines = compare_reports(
            report_with({"a": counted(1000.0, 40.0)}),
            report_with({"a": bench(1000.0)}))
        assert code == 1
        assert any("no calls_per_access" in line for line in lines)

    def test_uncounted_baseline_row_gates_nothing(self):
        code, _ = compare_reports(report_with({"a": bench(1000.0)}),
                                  report_with({"a": counted(1000.0, 9.0)}))
        assert code == 0

    def test_other_interpreter_skips_costs(self):
        base = report_with({"a": counted(1000.0, 40.0)}, python="3.11.7")
        cand = report_with({"a": counted(1000.0, 90.0)}, python="3.12.1")
        code, lines = compare_reports(base, cand)
        assert code == 0
        assert lines[0].startswith("SKIPPED")

    def test_patch_releases_share_an_interpreter(self):
        base = report_with({"a": counted(1000.0, 40.0)}, python="3.11.7")
        cand = report_with({"a": counted(1000.0, 90.0)}, python="3.11.9")
        assert compare_reports(base, cand)[0] == 1

    def test_exact_only_fails_on_another_interpreter(self):
        base = report_with({"a": counted(1000.0, 40.0)}, python="3.11.7")
        cand = report_with({"a": counted(1000.0, 40.0)}, python="3.12.1")
        code, lines = compare_reports(base, cand, exact_only=True)
        assert code == 1
        assert lines[0].startswith("INTERP")

    def test_exact_only_ignores_wall_clock(self):
        code, lines = compare_reports(
            report_with({"a": counted(1000.0, 40.0)}),
            report_with({"a": counted(10.0, 40.0)}), exact_only=True)
        assert code == 0
        assert not any("acc/s" in line for line in lines)


class TestCountCosts:
    def test_counts_are_exact_and_repeatable(self):
        (_, _, runner), = _benchmarks(("scheme:baseline",))
        first = count_costs(runner)
        assert set(first) == set(COST_COLUMNS)
        assert all(value > 0 for value in first.values())
        assert count_costs(runner) == first


class TestBenchResult:
    def test_to_dict_rounds(self):
        row = BenchResult("a", 500, 0.1234567, 4051.23456, "e" * 64, 3)
        as_dict = row.to_dict()
        assert as_dict["wall_seconds"] == 0.123457
        assert as_dict["accesses_per_sec"] == 4051.2
        assert as_dict["repeats"] == 3
        assert "extra" not in as_dict      # omitted when unset

    def test_extra_round_trips(self):
        row = BenchResult("a", 500, 0.1, 5000.0, "e" * 64, 3,
                          extra={"fetch_p50_ns": 481})
        assert row.to_dict()["extra"] == {"fetch_p50_ns": 481}


class TestServeCacheHitBench:
    def test_latency_percentiles_recorded(self):
        """The cached-fetch bench reports p50/p99 ns alongside the
        digest (one real store, one real cell)."""
        report = run_benchmarks(quick=True, names=("serve_cache_hit",))
        row = report["benchmarks"]["serve_cache_hit"]
        assert row["accesses"] == 2000
        extra = row["extra"]
        assert not set(COST_COLUMNS) & set(row)
        assert 0 < extra["fetch_p50_ns"] <= extra["fetch_p99_ns"]
        assert len(row["digest"]) == 64


class TestSmokeRun:
    def test_single_scheme_quick_run(self):
        """One real benchmark end to end: schema, a 64-hex digest, and a
        positive throughput."""
        report = run_benchmarks(quick=True, names=("scheme:baseline",))
        assert report["schema_version"] == SCHEMA_VERSION
        row = report["benchmarks"]["scheme:baseline"]
        assert row["accesses"] > 0
        assert row["accesses_per_sec"] > 0
        assert len(row["digest"]) == 64
        int(row["digest"], 16)
        assert all(row[column] > 0 for column in COST_COLUMNS)

    def test_cli_compare(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        save_report(report_with({"a": bench(1000.0)}), base)
        save_report(report_with({"a": bench(700.0)}), cand)
        assert main(["perf", "compare", str(base), str(cand)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["perf", "compare", str(base), str(cand),
                     "--advisory"]) == 0
        assert "ADVISORY" in capsys.readouterr().out
        assert main(["perf", "compare", str(base), str(cand),
                     "--exact-only"]) == 0
        assert "exact costs only" in capsys.readouterr().out
