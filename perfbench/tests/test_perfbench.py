"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SUBCOMMANDS, WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_span_self_time_excludes_child_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        tr.call("leaf", leaf)
        tr.call("leaf", leaf)
        clock.advance(0.5)

    def outer():
        tr.call("middle", middle)
        clock.advance(3.0)

    tr.call("outer", outer)
    st = tr.stats
    assert (st["leaf"].calls, st["leaf"].self_s, st["leaf"].incl_s) == (2, 4.0, 4.0)
    assert (st["middle"].self_s, st["middle"].incl_s) == (1.5, 5.5)
    assert (st["outer"].self_s, st["outer"].incl_s) == (3.0, 8.5)


def test_span_counts_errors_and_keeps_stack_balanced():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    def outer():
        with pytest.raises(ValueError):
            tr.call("boom", boom)
        clock.advance(1.0)

    tr.call("outer", outer)
    assert tr.stats["boom"].errors == 1 and tr.stats["outer"].errors == 0
    assert tr.stats["outer"].self_s == 1.0
    assert tr._open == []


def _bindings():
    return {(name, key): val for name, mod in sys.modules.items()
            if mod is not None and name.startswith("metrilab")
            for key, val in vars(mod).items() if callable(val)}


def test_wrappers_cover_import_time_bindings_and_are_restored():
    from metrilab import cli, kernels, metriplectic
    from metrilab.circuits import CircuitGraph
    from metrilab.experiments import exp4

    before = _bindings()
    field_before = vars(CircuitGraph)["field"]
    tr = Tracer()
    tr.install()
    try:
        assert exp4._kernel_ca_step.__wrapped__ is before[("metrilab.kernels", "ca_step")]
        assert kernels.rotor_chunk.__wrapped__ is before[("metrilab.kernels", "rotor_chunk")]
        assert cli.simulate_bitflip.__wrapped__ is before[("metrilab.cce", "simulate_bitflip")]
        assert metriplectic.step.__wrapped__ is before[("metrilab.metriplectic", "step")]
        assert vars(CircuitGraph)["field"].__wrapped__ is field_before

        E = np.zeros((16, 16), dtype=np.int64)
        E[8, 8] = 40
        exp4.ca_step(E, 8)
        sysm = metriplectic.make_preset("isotropic-decay", dim=2, lam=1.0)
        metriplectic.simulate(sysm, np.array([1.0, 0.0]), np.zeros(5), 0.1)
    finally:
        tr.restore()

    m = tr.metrics()
    assert m["kernels.ca_step.calls"] == 1 and m["kernels.ca_step.cells"] == 256
    assert m["kernels.ca_step.bytes"] == 10 * 256 * 8   # E, E_new and 8 flow planes
    assert m["metriplectic.simulate.calls"] == 1 and m["metriplectic.step.calls"] == 5
    assert _bindings() == before
    assert vars(CircuitGraph)["field"] is field_before


GATES_CSV = "gate,noise,passed,counterexamples\nNOT,0,1,0\nAND,0.001,1,0\n"
EXP4_CSV = "t,mean_S,grad_corr,jaccard,neighbor_corr,total_energy\n10,0.25,0.5,1,0.75,900\n"


def _write(out, files):
    for rel, text in files.items():
        os.makedirs(os.path.join(out, os.path.dirname(rel)), exist_ok=True)
        with open(os.path.join(out, rel), "w") as fh:
            fh.write(text)


@pytest.fixture
def artifacts():
    return {
        "gates/gates.csv": GATES_CSV,
        "gates/gates.meta.json": json.dumps({"name": "gates", "seed": 3}),
        "exp4/exp4.csv": EXP4_CSV,
        "exp4/exp4.meta.json": json.dumps({"name": "exp4", "total_energy": 900}),
    }


def test_checker_accepts_identical_and_tolerates_float_noise(tmp_path, artifacts):
    _write(tmp_path, {**artifacts, "exp4/exp4.csv": EXP4_CSV.replace("0.25,", "0.2500000000001,")})
    res = check.check_pass(str(tmp_path), ("gates", "exp4"), {"gates": 0, "exp4": 0}, artifacts)
    assert res.ok, res.problems
    assert (res.compared, res.identical) == (4, 3)


@pytest.mark.parametrize("rel,old,new", [
    ("exp4/exp4.csv", "0.25,", "0.2501,"),       # float cell outside tolerance
    ("gates/gates.csv", "AND,0.001,1,0", "AND,0.001,1,1"),  # integer cell
    ("gates/gates.meta.json", '"seed": 3', '"seed": 4'),
])
def test_checker_flags_perturbed_cell(tmp_path, artifacts, rel, old, new):
    _write(tmp_path, {**artifacts, rel: artifacts[rel].replace(old, new)})
    res = check.check_pass(str(tmp_path), ("gates", "exp4"), {"gates": 0, "exp4": 0}, artifacts)
    assert not res.ok
    assert any(rel in p for p in res.problems), res.problems


def test_checker_flags_missing_file_and_broken_invariants(tmp_path, artifacts):
    files = dict(artifacts)
    del files["gates/gates.meta.json"]
    files["exp4/exp4.csv"] = EXP4_CSV.replace(",900", ",899")
    _write(tmp_path, files)
    res = check.check_pass(str(tmp_path), ("gates", "exp4"), {"gates": 0, "exp4": 0})
    assert "gates/gates.meta.json: missing" in res.problems
    assert any("total energy" in p for p in res.problems)


def test_tur_false_alarm_judged_against_exact_walk():
    cfg = {"tur_forward": 0.06, "tur_backward": 0.04, "tur_steps": 1000, "tur_walkers": 2000}
    lhs, rhs = check.walk_expectation(0.06, 0.04, 1000)
    assert lhs > rhs
    near = {"lhs": repr(0.2217), "rhs": repr(rhs)}
    assert check.judge_tur_row(near, cfg)
    assert not check.judge_tur_row({"lhs": "0.1", "rhs": repr(rhs)}, cfg)
    assert not check.judge_tur_row({"lhs": repr(0.2217), "rhs": repr(1.1 * rhs)}, cfg)


def test_declared_metrics_match_what_the_benchmark_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {f"cli.{s}.s" for s in SUBCOMMANDS} <= set(per_layer)
