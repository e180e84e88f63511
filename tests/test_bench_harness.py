"""The performance-trajectory plane: schema, publish sinks, detector, CLI.

Covers the regression detector against synthetic trajectories (empty
history, single sample, noisy-but-flat, true regression, true improvement,
unit/metric renames across schema versions) and pins the acceptance
criterion end-to-end: a fake bench published through the real `bench run`
path passes `bench diff` on an unchanged re-run and fails it after an
injected 30% latency regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import bench as ob
from repro.obs.bench import (
    BenchResult,
    Contract,
    EnvFingerprint,
    Metric,
    compare_metric,
    default_tolerance,
    diff_results,
    discover,
    format_delta_table,
    load_result,
    make_baselines,
    merge_results,
    migrate,
    publish,
    read_trajectory,
    relative_noise,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _env(host="boxa", cpu="cpu-x", count=8, sha="deadbeef"):
    return EnvFingerprint(
        git_sha=sha, python="3.11.7", numpy="1.26.0", platform="linux",
        hostname=host, cpu_count=count, cpu_model=cpu,
        repro_knobs={"REPRO_PROFILE": "0"}, peak_rss_bytes=1 << 20,
    )


def _result(bench, value, *, name="latency_seconds", unit="seconds",
            direction="lower", env=None, created=0.0):
    return BenchResult(
        bench=bench,
        metrics=[Metric(name, value, unit, direction)],
        env=env or _env(),
        created_unix=created,
    )


def _baselines(*results):
    return make_baselines(results)


# ----------------------------------------------------------------- schema


class TestSchema:
    def test_metric_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            Metric("x", 1.0, "seconds", "sideways")

    def test_roundtrip_preserves_everything(self):
        result = BenchResult(
            bench="demo",
            metrics=[Metric("t", 1.5, "seconds", "lower")],
            contracts=[Contract("bar", True, 2.0, 3.0)],
            env=_env(),
            payload={"rows": [1, 2, 3]},
            created_unix=123.0,
            repeats=3,
        )
        loaded = BenchResult.from_dict(result.to_dict())
        assert loaded.bench == "demo"
        assert loaded.metric("t").value == 1.5
        assert loaded.contracts[0].passed is True
        assert loaded.env.hostname == "boxa"
        assert loaded.payload == {"rows": [1, 2, 3]}
        assert loaded.repeats == 3

    def test_trajectory_form_omits_payload(self):
        result = _result("demo", 1.0)
        result.payload["big"] = "x" * 100
        doc = result.to_dict(trajectory=True)
        assert "payload" not in doc
        assert "env" in doc and "metrics" in doc

    def test_legacy_v0_payload_wraps_losslessly(self):
        legacy = {"bench": "query_engine", "records": [{"speedup": 12.0}]}
        loaded = BenchResult.from_dict(legacy)
        assert loaded.bench == "query_engine"
        assert loaded.metrics == []
        assert loaded.payload == legacy
        assert loaded.schema_version == ob.SCHEMA_VERSION

    def test_newer_schema_version_rejected(self):
        with pytest.raises(ValueError, match="newer schema"):
            migrate({"schema_version": ob.SCHEMA_VERSION + 1, "bench": "x"})

    def test_unit_rename_ms_to_seconds_on_load(self):
        doc = _result("demo", 1.0).to_dict()
        doc["metrics"] = [
            {"name": "latency_ms", "value": 250.0, "unit": "ms",
             "direction": "lower"}
        ]
        loaded = BenchResult.from_dict(doc)
        metric = loaded.metric("latency_seconds")
        assert metric is not None
        assert metric.value == pytest.approx(0.25)
        assert metric.unit == "seconds"

    def test_merge_results_is_direction_aware(self):
        def run(lo, hi, fx):
            return BenchResult(
                bench="demo",
                metrics=[
                    Metric("t", lo, "seconds", "lower"),
                    Metric("rps", hi, "rps", "higher"),
                    Metric("updates", fx, "count", "fixed"),
                ],
                env=_env(),
            )

        merged = merge_results([run(2.0, 10.0, 7.0), run(1.0, 30.0, 7.0),
                                run(3.0, 20.0, 7.0)])
        assert merged.metric("t").value == 1.0
        assert merged.metric("rps").value == 30.0
        assert merged.metric("updates").value == 7.0
        assert merged.repeats == 3

    def test_default_tolerances(self):
        assert default_tolerance(
            Metric("n", 0, "count", "fixed")
        ) == ob.FIXED_TOLERANCE
        assert default_tolerance(
            Metric("t", 0, "seconds", "lower")
        ) == ob._UNIT_TOLERANCES["seconds"]
        assert default_tolerance(Metric("r", 0, "ratio", "higher")) is None


# ---------------------------------------------------------------- publish


class TestPublish:
    def test_three_sinks(self, tmp_path):
        results_dir = tmp_path / "results"
        root = tmp_path / "root"
        result = _result("demo", 1.25)
        canonical = publish(result, results_dir, root_dir=root)
        assert canonical == results_dir / "BENCH_demo.json"
        assert (root / "BENCH_demo.json").exists()
        trajectory = results_dir / "trajectory.jsonl"
        assert trajectory.exists()
        assert load_result(canonical).metric("latency_seconds").value == 1.25
        entries = read_trajectory(trajectory)
        assert len(entries) == 1 and entries[0].bench == "demo"

    def test_trajectory_appends_and_skips_bad_lines(self, tmp_path):
        results_dir = tmp_path / "results"
        publish(_result("demo", 1.0), results_dir)
        publish(_result("demo", 2.0), results_dir)
        trajectory = results_dir / "trajectory.jsonl"
        with open(trajectory, "a") as handle:
            handle.write("not json\n")
        publish(_result("other", 3.0), results_dir)
        entries = read_trajectory(trajectory)
        assert [e.bench for e in entries] == ["demo", "demo", "other"]


# --------------------------------------------------------------- detector


class TestDetector:
    def test_empty_history_falls_back_to_threshold(self):
        assert relative_noise([]) == 0.0
        base = _baselines(_result("b", 1.0, name="r", unit="ratio"))
        entry = base["benches"]["b"]["metrics"]["r"]
        delta = compare_metric(
            "b", entry, Metric("r", 1.2, "ratio", "lower"), [], name="r"
        )
        # 20% < default 25% threshold
        assert delta.status == "ok"
        delta = compare_metric(
            "b", entry, Metric("r", 1.3, "ratio", "lower"), [], name="r"
        )
        assert delta.status == "regression"

    def test_single_sample_history_gives_no_noise(self):
        assert relative_noise([1.0]) == 0.0
        assert relative_noise([1.0, 1.1]) == 0.0  # below MIN_NOISE_SAMPLES

    def test_noisy_but_flat_series_widens_the_window(self):
        # ±40% swings around 1.0: any single new sample inside that band
        # must NOT flag, even though 40% > the 25% static threshold.
        history = [1.0, 1.4, 0.6, 1.3, 0.7, 1.2, 0.8]
        noise = relative_noise(history)
        assert noise > 0.25
        base = _baselines(_result("b", 1.0, name="r", unit="ratio"))
        entry = base["benches"]["b"]["metrics"]["r"]
        delta = compare_metric(
            "b", entry, Metric("r", 1.45, "ratio", "lower"), history, name="r"
        )
        assert delta.status == "ok"
        assert delta.allowed_rel >= ob.DEFAULT_NOISE_MULT * noise

    def test_true_regression_flags_and_improvement_does_not(self):
        base = _baselines(_result("b", 1.0, name="r", unit="ratio"))
        trajectory = [
            _result("b", v, name="r", unit="ratio", created=float(i))
            for i, v in enumerate([1.0, 1.01, 0.99, 1.02, 2.0])
        ]
        deltas = diff_results(trajectory, base)
        assert [d.status for d in deltas] == ["regression"]
        # an improvement in the good direction is reported, never gated
        trajectory[-1] = _result("b", 0.5, name="r", unit="ratio", created=4.0)
        deltas = diff_results(trajectory, base)
        assert [d.status for d in deltas] == ["improvement"]
        assert not any(d.gating for d in deltas)

    def test_higher_is_better_direction(self):
        base = _baselines(
            _result("b", 100.0, name="rps", unit="rps", direction="higher")
        )
        drop = [_result("b", 60.0, name="rps", unit="rps",
                        direction="higher")]
        assert diff_results(drop, base)[0].status == "regression"
        rise = [_result("b", 160.0, name="rps", unit="rps",
                        direction="higher")]
        assert diff_results(rise, base)[0].status == "improvement"

    def test_fixed_metric_flags_any_drift_both_ways(self):
        base = _baselines(
            _result("b", 1000.0, name="updates", unit="count",
                    direction="fixed")
        )
        for bad in (996.0, 1004.0):
            got = diff_results(
                [_result("b", bad, name="updates", unit="count",
                         direction="fixed")],
                base,
            )
            assert got[0].status == "regression", bad
        ok = diff_results(
            [_result("b", 1000.0, name="updates", unit="count",
                     direction="fixed")],
            base,
        )
        assert ok[0].status == "ok"

    def test_cross_machine_timing_demoted_to_info_fixed_still_gates(self):
        pinned = BenchResult(
            bench="b",
            metrics=[
                Metric("t", 1.0, "seconds", "lower"),
                Metric("updates", 100.0, "count", "fixed"),
            ],
            env=_env(host="ci-runner-1"),
        )
        base = _baselines(pinned)
        latest = BenchResult(
            bench="b",
            metrics=[
                Metric("t", 10.0, "seconds", "lower"),  # 10x "slower"
                Metric("updates", 150.0, "count", "fixed"),
            ],
            env=_env(host="laptop"),
        )
        by_name = {d.metric: d for d in diff_results([latest], base)}
        assert by_name["t"].status == "info"  # different box: not gated
        assert by_name["updates"].status == "regression"  # gates anywhere
        strict = {
            d.metric: d
            for d in diff_results([latest], base, strict_env=True)
        }
        assert strict["t"].status == "regression"

    def test_noise_history_only_from_matching_machines(self):
        base = _baselines(_result("b", 1.0, name="r", unit="ratio"))
        # wildly noisy history from ANOTHER machine must not widen the
        # window for this machine's candidate
        other = [
            _result("b", v, name="r", unit="ratio",
                    env=_env(host="elsewhere"), created=float(i))
            for i, v in enumerate([0.1, 5.0, 0.2, 4.0])
        ]
        latest = _result("b", 1.3, name="r", unit="ratio", created=10.0)
        delta = diff_results(other + [latest], base)[0]
        assert delta.samples == 0
        assert delta.status == "regression"

    def test_metric_rename_across_versions_still_compares(self):
        # baseline pinned under the new name; an old trajectory line wrote
        # latency_ms in ms — normalization maps it onto the same series
        base = _baselines(_result("b", 1.0, name="latency_seconds"))
        old_line = _result("b", 1.0).to_dict()
        old_line["metrics"] = [
            {"name": "latency_ms", "value": 1400.0, "unit": "ms",
             "direction": "lower"}
        ]
        latest = BenchResult.from_dict(old_line)
        delta = diff_results([latest], base)[0]
        assert delta.metric == "latency_seconds"
        assert delta.latest == pytest.approx(1.4)

    def test_unpinned_metric_reports_new(self):
        base = _baselines(_result("b", 1.0, name="old"))
        latest = BenchResult(
            bench="b",
            metrics=[Metric("old", 1.0, "seconds", "lower"),
                     Metric("fresh", 2.0, "seconds", "lower")],
            env=_env(),
        )
        statuses = {d.metric: d.status for d in diff_results([latest], base)}
        assert statuses["fresh"] == "new"

    def test_missing_metric_reports_missing(self):
        base = _baselines(_result("b", 1.0, name="gone"))
        latest = BenchResult(bench="b", metrics=[], env=_env())
        assert diff_results([latest], base)[0].status == "missing"

    def test_delta_table_renders_every_row(self):
        base = _baselines(_result("b", 1.0, name="r", unit="ratio"))
        lines = format_delta_table(
            diff_results([_result("b", 2.0, name="r", unit="ratio")], base)
        )
        assert any("regression" in line for line in lines)
        assert lines[0].startswith("bench")

    def test_accept_preserves_unmatched_benches(self):
        previous = make_baselines([_result("keep", 1.0)])
        updated = make_baselines([_result("b", 2.0)], previous)
        assert set(updated["benches"]) == {"keep", "b"}


# ------------------------------------------------------------ env + discover


class TestEnvAndDiscovery:
    def test_fingerprint_collects_real_values(self):
        fp = EnvFingerprint.collect()
        assert fp.python == sys.version.split()[0]
        assert fp.cpu_count == (os.cpu_count() or 0)
        assert fp.hostname
        roundtrip = EnvFingerprint.from_dict(fp.to_dict())
        assert roundtrip.matches_machine(fp)

    def test_matches_machine_discriminates(self):
        assert not _env(host="a").matches_machine(_env(host="b"))
        assert not _env(cpu="x").matches_machine(_env(cpu="y"))
        assert _env().matches_machine(_env(sha="different-sha"))

    def test_discover_reads_tier_and_summary(self, tmp_path):
        (tmp_path / "bench_fast.py").write_text(
            '"""Fast one."""\nBENCH_TIER = "smoke"\n'
        )
        (tmp_path / "bench_slow.py").write_text('"""Slow one."""\n')
        specs = {s.name: s for s in discover(tmp_path)}
        assert specs["fast"].tier == "smoke"
        assert specs["fast"].summary == "Fast one."
        assert specs["slow"].tier == "full"
        assert specs["fast"].in_tier("smoke")
        assert not specs["slow"].in_tier("smoke")
        assert specs["slow"].in_tier("full")

    def test_repo_smoke_tier_is_nonempty(self):
        specs = discover(REPO_ROOT / "benchmarks")
        smoke = [s for s in specs if s.tier == "smoke"]
        assert len(smoke) >= 3
        assert {"csr_peeling", "query_engine", "incremental"} <= {
            s.name for s in smoke
        }


# --------------------------------------------------------- CLI end-to-end


FAKE_BENCH = '''
"""Fake bench: one deterministic latency metric, knob-controlled."""
import os

import _shared
from _shared import Contract, Metric

BENCH_TIER = "smoke"


def test_fake_latency():
    latency = float(os.environ.get("REPRO_FAKE_LATENCY", "1.0"))
    _shared.publish(
        _shared.make_result(
            "fake",
            metrics=[
                Metric("latency_seconds", latency, "seconds", "lower"),
                Metric("updates", 42.0, "count", "fixed"),
            ],
            contracts=[Contract("always", True, 0.0, latency)],
            include_rss=False,
        )
    )
'''


@pytest.fixture()
def fake_repo(tmp_path):
    """A minimal repo: benchmarks/ with _shared shim + one fake bench."""
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    # the fake _shared binds the real harness to this tmp repo's paths
    (bench_dir / "_shared.py").write_text(
        "from pathlib import Path\n"
        "from repro.obs import bench as obs_bench\n"
        "from repro.obs.bench import Contract, Metric\n"
        "RESULTS_DIR = Path(__file__).parent / 'results'\n"
        "REPO_ROOT = Path(__file__).resolve().parent.parent\n"
        "def make_result(bench, *, metrics=(), contracts=(), payload=None,\n"
        "                include_rss=True):\n"
        "    return obs_bench.BenchResult(\n"
        "        bench=bench, metrics=list(metrics),\n"
        "        contracts=list(contracts),\n"
        "        env=obs_bench.get_fingerprint(refresh=True),\n"
        "        payload=dict(payload or {}))\n"
        "def publish(result):\n"
        "    return obs_bench.publish(result, RESULTS_DIR,\n"
        "                             root_dir=REPO_ROOT)\n"
    )
    (bench_dir / "bench_fake.py").write_text(FAKE_BENCH)
    return tmp_path


def _cli(args, cwd, extra_env=None):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAKE_LATENCY", None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


class TestCLIEndToEnd:
    def test_run_diff_accept_and_injected_regression(self, fake_repo):
        run = _cli(["bench", "run", "--tier", "smoke"], fake_repo)
        assert run.returncode == 0, run.stdout + run.stderr
        assert "fake" in run.stdout

        trajectory = fake_repo / "benchmarks" / "results" / "trajectory.jsonl"
        entries = read_trajectory(trajectory)
        assert len(entries) == 1
        assert entries[0].env.hostname  # populated EnvFingerprint
        assert entries[0].env.git_sha
        assert (fake_repo / "BENCH_fake.json").exists()  # root copy

        accept = _cli(["bench", "accept"], fake_repo)
        assert accept.returncode == 0, accept.stdout + accept.stderr
        baselines = json.loads(
            (fake_repo / "benchmarks" / "baselines.json").read_text()
        )
        assert "fake" in baselines["benches"]

        # unchanged re-run passes the gate
        rerun = _cli(["bench", "run", "--tier", "smoke"], fake_repo)
        assert rerun.returncode == 0
        diff_ok = _cli(["bench", "diff", "--fail-on-regression"], fake_repo)
        assert diff_ok.returncode == 0, diff_ok.stdout + diff_ok.stderr
        assert "ok" in diff_ok.stdout

        # the acceptance pin: an injected 30% latency regression must flag.
        # the default seconds tolerance is generous for real wall-clock, so
        # the gate is exercised at a matching threshold, as CI would pin it
        # for a deliberately deterministic metric
        slow = _cli(
            ["bench", "run", "--tier", "smoke"],
            fake_repo,
            extra_env={"REPRO_FAKE_LATENCY": "1.3"},
        )
        assert slow.returncode == 0
        bases = json.loads(
            (fake_repo / "benchmarks" / "baselines.json").read_text()
        )
        bases["benches"]["fake"]["metrics"]["latency_seconds"][
            "tolerance"
        ] = 0.25
        (fake_repo / "benchmarks" / "baselines.json").write_text(
            json.dumps(bases)
        )
        diff_bad = _cli(["bench", "diff", "--fail-on-regression"], fake_repo)
        assert diff_bad.returncode == 2, diff_bad.stdout + diff_bad.stderr
        assert "regression" in diff_bad.stdout

        # fixed metrics keep gating too: corrupt the pinned update count
        bases["benches"]["fake"]["metrics"]["updates"]["value"] = 43.0
        (fake_repo / "benchmarks" / "baselines.json").write_text(
            json.dumps(bases)
        )
        diff_fixed = _cli(["bench", "diff"], fake_repo)
        assert diff_fixed.returncode == 2

    def test_history_and_repeat_fold(self, fake_repo):
        run = _cli(
            ["bench", "run", "--tier", "smoke", "--repeat", "2"], fake_repo
        )
        assert run.returncode == 0, run.stdout + run.stderr
        trajectory = fake_repo / "benchmarks" / "results" / "trajectory.jsonl"
        entries = read_trajectory(trajectory)
        # 2 raw repeats + 1 merged republication
        assert len(entries) == 3
        assert entries[-1].repeats == 2

        hist = _cli(["bench", "history", "fake"], fake_repo)
        assert hist.returncode == 0
        assert "latency_seconds" in hist.stdout

        missing = _cli(["bench", "history", "nope"], fake_repo)
        assert missing.returncode == 1

    def test_list_and_only_filter(self, fake_repo):
        out = _cli(["bench", "list"], fake_repo)
        assert out.returncode == 0
        assert "fake" in out.stdout
        none = _cli(["bench", "run", "--only", "zzz*"], fake_repo)
        assert none.returncode == 1
        assert "no benches matched" in none.stdout
