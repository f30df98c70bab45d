"""Self-test of the repository benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs at a tiny length; the benchmark must report every
metric BENCHMARK.json names, with its unit, and its layer attribution must
follow a delay injected into one layer.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
#: tiny runs: fewer prefix ops and fleet arrivals than the real benchmark
TINY = {
    "detect-fresh": dict(min_ops=4),
    "stream-session": dict(min_ops=4),
    "search-train": dict(min_ops=2),
    "fleet-open": dict(requests=1000),
}
CONV_DELAY_S = 0.002


def _run(name, trace, seconds=1.0):
    return workloads.WORKLOADS[name](SEED, seconds, trace, **TINY[name])


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in BENCHMARK[key]] == table
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}
    layer_names = {n for n, _ in workloads.PER_LAYER}
    assert {m for m, _, _ in workloads.SPAN_METRICS} <= layer_names


def test_normalisation_cancels_a_host_slowdown():
    """Ops that take twice as long while the reference does too read the
    same; a slower op next to an unchanged reference reads slower."""
    group = workloads.REF_GROUP
    nominal = workloads.REF_NOMINAL_MS
    got = workloads.normalised_ms(
        [10.0, 20.0, 30.0], [[nominal] * group, [2 * nominal] * group,
                             [nominal] * group])
    assert got == pytest.approx([10.0, 10.0, 30.0])
    # ops with fewer samples each pool them until REF_GROUP are in hand
    got = workloads.normalised_ms([4.0] * group, [[2 * nominal]] * group)
    assert got == pytest.approx([2.0] * group)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_reported(name):
    e2e = workloads.end_to_end_metrics(_run(name, trace=False))
    assert list(e2e) == [n for n, _ in workloads.END_TO_END]
    assert all(v > 0 for v in e2e.values()), e2e
    layer = workloads.per_layer_metrics(_run(name, trace=True))
    assert list(layer) == [n for n, _ in workloads.PER_LAYER]


def test_cli_prints_each_metric_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "stream-session", "--seed", str(SEED), "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expected
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
                   if len(line.split()) == 3}
        for name, unit in expected.items():
            assert printed.get(name) == unit, name


def test_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/ has nothing
    to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect-fresh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_conv_delay_is_attributed_to_nn(monkeypatch):
    import repro.nn.functional as F

    conv2d, calls = F.conv2d, []

    def delayed(*args, **kwargs):
        calls.append(1)
        time.sleep(CONV_DELAY_S)
        return conv2d(*args, **kwargs)

    base_detect = workloads.end_to_end_metrics(_run("detect-fresh", False))
    base_traced = workloads.per_layer_metrics(_run("detect-fresh", True))
    with monkeypatch.context() as m:
        m.setattr(F, "conv2d", delayed)
        slow_detect = workloads.end_to_end_metrics(
            _run("detect-fresh", False))
        slow_traced = workloads.per_layer_metrics(_run("detect-fresh", True))

    per_op = (base_traced["nn.conv2d_kxk.calls"]
              + base_traced["nn.conv2d_1x1.calls"])
    rise = slow_detect["host_ms_p50"] - base_detect["host_ms_p50"]
    assert rise >= 0.5 * per_op * CONV_DELAY_S * 1e3, rise
    kxk_calls = base_traced["nn.conv2d_kxk.calls"]
    assert kxk_calls >= 1
    kxk_rise = (slow_traced["nn.conv2d_kxk.self_ms"]
                - base_traced["nn.conv2d_kxk.self_ms"])
    assert kxk_rise >= 0.8 * kxk_calls * CONV_DELAY_S * 1e3, kxk_rise

    # the fleet never enters nn: no delayed call, and throughput stays
    # within run-to-run timing noise (medians of alternating runs)
    def fleet_ops_per_s():
        return workloads.end_to_end_metrics(
            _run("fleet-open", False))["ops_per_s"]

    base_fleet, slow_fleet = [], []
    n_calls = len(calls)
    for _ in range(3):
        base_fleet.append(fleet_ops_per_s())
        with monkeypatch.context() as m:
            m.setattr(F, "conv2d", delayed)
            slow_fleet.append(fleet_ops_per_s())
    assert len(calls) == n_calls
    ratio = statistics.median(slow_fleet) / statistics.median(base_fleet)
    assert 0.6 < ratio < 1 / 0.6, (base_fleet, slow_fleet)
