"""Tests of the benchmark itself: its inputs, its tracer and its metric list.

    python -m pytest perfbench
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import trial  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# each layer's main count, and the workload the layer dominates
MAIN_COUNTS = {
    "words.mul.calls": "growth",
    "chains.orbit_canonical.calls": "growth",
    "graph.neighbors.calls": "delta",
    "moebius.eps.calls": "defect",
    "fill.anchored.calls": "defect",
    "quasicocycle.alpha.calls": "defect",
    "lipschitz.calls": "defect",
    "lp.float.calls": "lpfill",
}


def small_inputs(name: str, seed: int = 1):
    """A few ops of the workload, enough to reach every layer it uses."""
    inputs = workloads.WORKLOADS[name].generate(seed)
    if name == "growth":
        fs, ops = inputs
        return [fs, [op for op in ops if op[0] <= 6]]
    return inputs[:{"defect": 60, "delta": 20, "lpfill": 6}[name]]


def test_pools_equal_the_library_samplers_at_the_pinned_seeds():
    from cuspedforms import quasicocycle as Q
    from cuspedforms.graph import CuspedGraph
    graph = CuspedGraph()
    rng = random.Random(7)
    tuples = [Q.sample_tuple(graph, rng, Q.STRATA[i % 3], 4)
              for i in range(2000)]
    assert workloads.WORKLOADS["defect"].pool(workloads.Sampler(7)) == tuples
    rng = random.Random(3)
    quads = [[graph._random_vertex(rng, 4) for _ in range(4)]
             for _ in range(200)]
    assert workloads.WORKLOADS["delta"].pool(workloads.Sampler(3)) == quads


@pytest.mark.parametrize("name", ["defect", "delta", "lpfill"])
def test_translated_pools_match_their_digest_at_every_seed(name):
    wl = workloads.WORKLOADS[name]
    for seed in (wl.pool_seed, 11, 12):
        assert wl.input_errors(seed, wl.generate(seed)) == []
    inputs = wl.generate(11)
    inputs[0][0][1] += 1
    assert wl.input_errors(11, inputs) != []


@pytest.mark.parametrize("name", ["defect", "delta"])
def test_translates_give_the_pinned_answers(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.generate(11)
    assert inputs != wl.generate(12)
    qc = wl.setup()
    ops = wl.decode(inputs)
    wl.begin_pass(qc)
    raws = [wl.op(qc, op) for op in ops]
    outputs = [wl.encode(qc, op, raw) for op, raw in zip(ops, raws)]
    assert wl.check(11, inputs, outputs, wl.end_pass(qc, raws)) == []
    assert wl.check(11, inputs, outputs[::-1],
                    wl.end_pass(qc, raws)) != []


def test_pins_reproduce_khat_and_deltahat():
    from cuspedforms.lipschitz import lip_on_window, linear
    pins = json.loads(workloads.PINS.read_text())
    lip = lip_on_window(linear(1), *workloads.KHAT_THETA_WINDOW)
    assert max(abs(Fraction(v)) for v in pins["defect"]) \
        == workloads.KHAT * lip
    delta = workloads.WORKLOADS["delta"]
    assert max(map(delta.four_point, pins["delta"])) == workloads.DELTAHAT


@pytest.mark.parametrize("name", ["defect", "delta"])
def test_a_failed_op_is_counted_and_not_compared(name, monkeypatch):
    from cuspedforms.errors import CapExceeded
    wl = workloads.WORKLOADS[name]
    inputs = small_inputs(name, seed=11)
    target = wl.decode(inputs)[3]
    op = wl.op

    def failing(qc, arg):
        if arg == target:
            raise CapExceeded("injected")
        return op(qc, arg)

    monkeypatch.setattr(wl, "op", failing)
    result = trial.execute(name, inputs, trace=False)
    assert result["cold"]["outputs"][3] == {"failed": "CapExceeded"}
    assert run.check_trials(wl, 11, inputs, [result]) == []
    assert run.failures([result]) == {"CapExceeded": 1}
    metrics = run.end_to_end([0.1], [result], 50, len(inputs), 1)
    assert metrics["ok_frac"]["value"] == 1 - 1 / len(inputs)
    outputs = list(result["cold"]["outputs"])
    outputs[0] = "99" if name == "defect" else [99] * 6
    assert wl.check(11, inputs, outputs, result["cold"]["summary"]) != []


def test_tracer_wraps_every_binding_and_restores_them():
    from cuspedforms import chains, graph, quasicocycle, words
    original = words.mul
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert tracer.unbound_originals() == []
        assert words.mul is not original
        assert graph.mul is chains.mul is quasicocycle.mul is words.mul
    finally:
        tracer.uninstall()
    assert graph.mul is chains.mul is quasicocycle.mul is words.mul \
        is original


@pytest.mark.parametrize("name", sorted(set(MAIN_COUNTS.values())))
def test_each_layer_counts_on_the_workload_it_dominates(name):
    inputs = small_inputs(name)
    traced = [trial.execute(name, inputs, trace=True) for _ in range(2)]
    plain = trial.execute(name, inputs, trace=False)
    assert traced[0]["cold"] == traced[1]["cold"] == plain["cold"] \
        == plain["warm"]
    metrics, errors = run.per_layer(traced, [plain])
    assert errors == []
    assert run.per_layer(traced[:1], [plain])[1] != []
    assert set(metrics) == {m for m, _, _ in run.PER_LAYER}
    for metric, workload in MAIN_COUNTS.items():
        if workload == name:
            assert metrics[metric]["value"] > 0, metric


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, unit) for name, unit, _ in run.PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: wl.why for name, wl in workloads.WORKLOADS.items()}


def test_a_run_makes_its_least_trials(monkeypatch):
    monkeypatch.setattr(run, "run_trial",
                        lambda *args, **kw: {"setup_s": 0.0})
    monkeypatch.setattr(run, "perf_counter", lambda: 0.0)
    wl = workloads.WORKLOADS["delta"]
    setups, trials = run.run_trials(wl, [], 0, False, 0.0)
    assert len(trials) == run.MIN_TRIALS
    assert len(setups) == (1 + run.SETUPS_PER_TRIAL) * run.MIN_TRIALS
    setups, trials = run.run_trials(wl, [], 0, True, 0.0)
    assert [t["traced"] for t in trials] == [False, True] * run.MIN_TRACED
    assert len(setups) == run.MIN_TRACED
    # a run already past its overrun limit
    assert len(run.run_trials(wl, [], 10, False, -1e3)[1]) == 1
    assert [t["traced"] for t in run.run_trials(wl, [], 10, True, -1e3)[1]] \
        == [False, True] * run.MIN_TRACED


def test_tail_percentile_leaves_ten_ops_beyond_it():
    for n in (44, 48, 200, 2000):
        p = run.tail_percentile(n)
        ops = list(range(n))
        assert run.percentile(ops, p) == n - 1 - run.TAIL_BEYOND


def test_each_op_is_scaled_by_the_probes_around_it():
    import speed
    probes = [(0, 0.002), (2, 0.006), (3, 0.010)]
    scaled = speed.ops_to_reference([1.0, 2.0, 1.0], probes)
    assert scaled == pytest.approx([speed.REF_S / 0.004,
                                    2 * speed.REF_S / 0.004,
                                    speed.REF_S / 0.008])
