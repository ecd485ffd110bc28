import os

import numpy as np
import pytest

from metrilab.cce import BOUNDARY, preserved_information
from metrilab.circuits import (
    GATE_DEFAULTS,
    CircuitGraph,
    LogicalReadout,
    NodeSpec,
    build_gate,
    flipflop_space,
    integrate_circuit,
    logical_table,
    logistic,
    read_stored_bit,
    run_flipflop,
    settle_and_read,
    verify_truth_table,
)
from metrilab.cli import main as cli_main
from metrilab.errors import AmbiguousStateError, InvalidGateParamsError, NonFixedPointError, NoSettleError
from metrilab.metrics import recovery_probe
from metrilab.numerics import SeededRng

READOUT = LogicalReadout()
ALL_GATES = ("NOT", "AND", "OR", "NAND", "NOR", "XOR")


def bisect_fixed_point(drive, gain, lo=0.0, hi=1.0, iters=80):
    """Root of x - sigma(gain * drive) ... constant drive: solve by bisection."""
    f = lambda x: logistic(gain * drive) - x
    a, b = lo, hi
    for _ in range(iters):
        m = 0.5 * (a + b)
        if f(a) * f(m) <= 0:
            b = m
        else:
            a = m
    return 0.5 * (a + b)


class TestBuildAndTables:
    @pytest.mark.parametrize("kind", ALL_GATES)
    def test_truth_table_clean(self, kind):
        res = verify_truth_table(build_gate(kind), logical_table(kind), READOUT)
        assert res.passed, res.counterexamples

    @pytest.mark.parametrize("kind", ALL_GATES)
    def test_truth_table_with_state_noise(self, kind):
        res = verify_truth_table(build_gate(kind), logical_table(kind), READOUT,
                                 noise=1e-3, rng=SeededRng(13))
        assert res.passed, res.counterexamples

    def test_not_with_raw_sigmoid_parameterization(self):
        # steep weights with unit gain: the same inversion
        g = build_gate("NOT", {"w": 8.0, "b_not": 4.0, "gain": 1.0})
        assert settle_and_read(g, {"in": 1.0}, READOUT)["out"] == 0
        assert settle_and_read(g, {"in": 0.0}, READOUT)["out"] == 1

    def test_and_only_both_high(self):
        g = build_gate("AND")
        for a, b in ((0, 0), (0, 1), (1, 0)):
            assert settle_and_read(g, {"in1": a, "in2": b}, READOUT)["out"] == 0
        assert settle_and_read(g, {"in1": 1, "in2": 1}, READOUT)["out"] == 1

    def test_or_whenever_either_high(self):
        g = build_gate("OR")
        assert settle_and_read(g, {"in1": 0, "in2": 0}, READOUT)["out"] == 0
        assert settle_and_read(g, {"in1": 1, "in2": 0}, READOUT)["out"] == 1

    def test_xor_composite_identity(self):
        res = verify_truth_table(build_gate("XOR"), logical_table("XOR"), READOUT)
        assert res.passed

    def test_and_against_or_table_fails_with_counterexample(self):
        res = verify_truth_table(build_gate("AND"), logical_table("OR"), READOUT)
        assert not res.passed
        bad_inputs = {tuple(sorted(c["inputs"].items())) for c in res.counterexamples}
        assert (("in1", 1.0), ("in2", 0.0)) in bad_inputs

    def test_nand_chain_matches_table(self):
        res = verify_truth_table(build_gate("NAND"), logical_table("NAND"), READOUT)
        assert res.passed

    def test_interval_semantics(self):
        # any analog level inside a logical interval produces the same label
        g = build_gate("AND")
        for a in (0.0, 0.15, 0.2):
            for b in (0.8, 0.93, 1.0):
                assert settle_and_read(g, {"in1": a, "in2": b}, READOUT)["out"] == 0
        for a in (0.8, 1.0):
            for b in (0.85, 1.0):
                assert settle_and_read(g, {"in1": a, "in2": b}, READOUT)["out"] == 1

    def test_degenerate_threshold_rejected(self):
        with pytest.raises(InvalidGateParamsError):
            build_gate("AND", {"theta_and": 1.0})

    def test_flipflop_low_gain_rejected(self):
        with pytest.raises(InvalidGateParamsError):
            build_gate("FLIPFLOP", {"g_ff": 0.5})


class TestSettle:
    def test_fixed_point_matches_bisection_oracle(self):
        p = GATE_DEFAULTS
        g = build_gate("AND")
        labels, state = settle_and_read(g, {"in1": 1.0, "in2": 0.0}, READOUT, return_state=True)
        assert labels["out"] == 0
        oracle = bisect_fixed_point(p["w"] * 1.0 + p["w"] * 0.0 - p["theta_and"], p["gain"])
        assert abs(state[0] - oracle) < 1e-3

    def test_idempotent_on_settled_state(self):
        g = build_gate("OR")
        labels, state = settle_and_read(g, {"in1": 1.0, "in2": 0.0}, READOUT, return_state=True)
        again = settle_and_read(g, {"in1": 1.0, "in2": 0.0}, READOUT, x0=state)
        assert again == labels

    def test_no_settle_error_reports_state(self):
        # an oscillator node can never satisfy a fixed-point readout
        circ = CircuitGraph({"o": NodeSpec("oscillator", {"omega": 2.0})}, [],
                            {"in": [("o", 1.0)]}, {"out": "o"})
        with pytest.raises(NoSettleError) as err:
            settle_and_read(circ, {"in": 0.0}, LogicalReadout(t_max=5.0))
        assert err.value.final_state is not None

    def test_settling_time_below_half_tmax(self):
        # measured settle horizon stays comfortably inside the budget
        fast = LogicalReadout(t_max=READOUT.t_max / 2)
        for kind in ALL_GATES:
            res = verify_truth_table(build_gate(kind), logical_table(kind), fast)
            assert res.passed


class TestFlipFlop:
    def test_set_then_hold_retains_bit(self):
        ff = build_gate("FLIPFLOP")
        readings, ledger = run_flipflop(ff, [("set", 2.0, 8.0)], READOUT, hold_after=60.0)
        assert [b for _, b in readings] == [1]
        assert len(ledger) == 0  # no transitions during the hold

    def test_set_then_reset_sequence(self):
        ff = build_gate("FLIPFLOP")
        readings, ledger = run_flipflop(
            ff, [("set", 2.0, 8.0), ("reset", 30.0, 36.0)], READOUT, hold_after=20.0)
        assert [b for _, b in readings] == [1, 0]
        assert len(ledger) == 1 and ledger.entries[0].kind == "jump"

    def test_perturbed_symmetric_start_settles_high_side(self):
        ff = build_gate("FLIPFLOP")
        readings, _ = run_flipflop(ff, [], READOUT, x0=np.array([1e-3, 0.0]), hold_after=60.0)
        assert readings[-1][1] == 1

    def test_pure_symmetric_start_is_ambiguous(self):
        ff = build_gate("FLIPFLOP")
        with pytest.raises(AmbiguousStateError):
            run_flipflop(ff, [], READOUT, hold_after=30.0)

    def test_simultaneous_pulses_race(self):
        ff = build_gate("FLIPFLOP")
        with pytest.raises(AmbiguousStateError):
            run_flipflop(ff, [("set", 1.0, 6.0), ("reset", 3.0, 9.0)], READOUT)

    def test_retention_preserves_ln2(self):
        # no merges over a pulse-free horizon: the stored binary distinction
        # carries ln 2 nats of preserved information
        ff = build_gate("FLIPFLOP")
        readings, ledger = run_flipflop(ff, [("set", 2.0, 8.0)], READOUT, hold_after=100.0)
        space = flipflop_space()
        hold = (8.0, 108.0)
        assert preserved_information(ledger, space, hold) == pytest.approx(np.log(2.0))


# ---------------------------------------------------------------------------
# per-row reference: one state, one RK4 step written out, labels per step
# ---------------------------------------------------------------------------

def reference_field(circuit, inputs):
    """Per-row vector field: W @ x plus a walk over the clamped ports, then
    each node kind's law under its boolean mask."""
    n = circuit.dim
    idx = {m: i for i, m in enumerate(circuit.node_names)}
    W = np.zeros((n, n))
    for src, dst, w in circuit.edges:
        W[idx[dst], idx[src]] += w
    params = [circuit.nodes[m].params for m in circuit.node_names]
    kinds = np.array([circuit.nodes[m].kind for m in circuit.node_names])
    bias = np.array([p.get("bias", 0.0) for p in params])
    gain = np.array([p.get("gain", GATE_DEFAULTS["gain"]) for p in params])
    leak = np.array([p.get("leak", 1.0) for p in params])
    omega = np.array([p.get("omega", 0.0) for p in params])
    a, i, o = kinds == "activation", kinds == "integrator", kinds == "oscillator"

    def f(x):
        v = W @ x
        for port, value in inputs.items():
            for node, w in circuit.input_ports[port]:
                v[idx[node]] += w * value
        dx = np.empty_like(x)
        dx[a] = -x[a] + logistic(gain[a] * (v[a] + bias[a]))
        dx[i] = -leak[i] * x[i] + v[i]
        dx[o] = omega[o] + v[o]
        return dx

    return f


def reference_step(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_integrate(circuit, inputs, x0, T, dt, noise=0.0, gen=None):
    f = reference_field(circuit, inputs)
    x = np.asarray(x0, dtype=float).copy()
    out = [x]
    for _ in range(int(round(T / dt))):
        x = reference_step(f, x, dt)
        if noise > 0.0 and gen is not None:
            x = x + noise * np.sqrt(dt) * gen.standard_normal(circuit.dim)
        out.append(x)
    return np.array(out)


def reference_settle(circuit, inputs, readout, x0=None, noise=0.0, rng=None):
    """-> (labels, state, step) of one row, settled alone."""
    dt = readout.dt
    window_steps = max(1, int(round(readout.window / dt)))
    gen = rng.generator() if (rng is not None and noise > 0.0) else None
    f = reference_field(circuit, inputs)
    x = np.zeros(circuit.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    tol = readout.tol if noise == 0.0 else max(readout.tol, 8.0 * noise)
    run_labels, run_len = None, 0
    history = [x.copy()]
    for k in range(int(round(readout.t_max / dt))):
        x = reference_step(f, x, dt)
        if gen is not None:
            x = x + noise * np.sqrt(dt) * gen.standard_normal(circuit.dim)
        history = (history + [x.copy()])[-(window_steps + 1):]
        labels = {port: readout.label(circuit.state_of(x, node))
                  for port, node in circuit.encoding_ports.items()}
        if None in labels.values():
            run_labels, run_len = None, 0
            continue
        run_len = run_len + 1 if labels == run_labels else 1
        run_labels = labels
        if run_len >= window_steps and np.max(np.abs(history[-1] - history[0])) <= tol:
            return run_labels, x, k + 1
    if run_len >= window_steps:
        raise NonFixedPointError("labels held but the state kept moving")
    raise NoSettleError("no settle", final_state=x)


def reference_recovery(circuit, x_base, delta, T, trials, rng, readout):
    """recovery_probe's per-trial form: kick, integrate, classify every step."""
    base_bit = read_stored_bit(circuit, x_base, readout)
    space = flipflop_space()
    gen = rng.generator()
    n = circuit.dim
    recovered, entropy = 0, 0.0
    for _ in range(trials):
        x0 = x_base.copy()
        if delta > 0:
            direction = gen.standard_normal(n)
            direction /= np.linalg.norm(direction)
            x0 = x_base + delta * gen.uniform() ** (1.0 / n) * direction
        traj = reference_integrate(circuit, {"set": 0.0, "reset": 0.0}, x0, T, readout.dt)
        prev, jumps = base_bit, 0
        for lab in (space.classify(row[:2]) for row in traj):
            if lab != BOUNDARY and lab != prev:
                jumps, prev = jumps + 1, lab
        entropy += jumps * space.alpha * np.log(2.0)
        try:
            recovered += read_stored_bit(circuit, traj[-1], readout) == base_bit
        except AmbiguousStateError:
            pass
    return {"R_T": recovered / trials, "C_T": entropy / trials}


def assert_rows_match_reference(circuit, rows, x0=None, noise=0.0, rngs=None):
    batch = settle_and_read(circuit, rows, READOUT, x0=x0, noise=noise, rng=rngs)
    for i, row in enumerate(rows):
        labels, state, step = reference_settle(
            circuit, row, READOUT, x0=None if x0 is None else x0[i], noise=noise,
            rng=None if rngs is None else rngs[i])
        assert batch.labels[i] == labels
        assert batch.steps[i] == step
        assert np.array_equal(batch.states[i], state)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class TestBatchedAgainstPerRowOracle:
    @pytest.mark.parametrize("noise", (0.0, 1e-3))
    @pytest.mark.parametrize("kind", ALL_GATES)
    def test_gate_corners(self, kind, noise):
        rows = [row for row, _ in logical_table(kind)]
        rngs = [SeededRng(13).derive(i) for i in range(len(rows))] if noise else None
        assert_rows_match_reference(build_gate(kind), rows, noise=noise, rngs=rngs)

    @pytest.mark.parametrize("noise", (0.0, 1e-3))
    def test_flipflop_hold(self, noise):
        ff = build_gate("FLIPFLOP")
        rngs = [SeededRng(4).derive(i) for i in range(2)] if noise else None
        assert_rows_match_reference(ff, [{"set": 0.0, "reset": 0.0}] * 2, x0=np.eye(2),
                                    noise=noise, rngs=rngs)

    def test_single_row_call_is_row_zero_of_a_batch(self):
        g = build_gate("XOR")
        labels, state = settle_and_read(g, {"in1": 1.0, "in2": 0.0}, READOUT, noise=1e-3,
                                        rng=SeededRng(2), return_state=True)
        batch = settle_and_read(g, [{"in1": 1.0, "in2": 0.0}, {"in1": 0.0, "in2": 0.0}], READOUT,
                                noise=1e-3, rng=[SeededRng(2), SeededRng(3)])
        assert labels == batch.labels[0]
        assert np.array_equal(state, batch.states[0])

    def test_unsettled_rows_raise_for_the_lowest_index(self):
        # an oscillator's drive sets its drift: 0 settles, 1e-3 creeps inside
        # the low interval (labels hold, state moves), 2 leaves it
        circ = CircuitGraph({"o": NodeSpec("oscillator", {"omega": 2.0})}, [],
                            {"in": [("o", 1.0)]}, {"out": "o"})
        readout = LogicalReadout(t_max=5.0)
        settles, creeps, leaves = {"in": -2.0}, {"in": -2.0 + 1e-3}, {"in": 0.0}
        with pytest.raises(NonFixedPointError):
            settle_and_read(circ, [settles, creeps, leaves], readout)
        with pytest.raises(NoSettleError) as err:
            settle_and_read(circ, [settles, leaves, creeps], readout)
        with pytest.raises(NoSettleError) as alone:
            reference_settle(circ, leaves, readout)
        assert np.array_equal(err.value.final_state, alone.value.final_state)

    @pytest.mark.parametrize("noise", (0.0, 1e-3))
    def test_empty_table_passes(self, noise):
        res = verify_truth_table(build_gate("AND"), [], READOUT, noise=noise, rng=SeededRng(1))
        assert res.passed and res.counterexamples == []

    def test_integrate_with_noise_matches_per_step_draws(self):
        ff = build_gate("FLIPFLOP")
        x0 = np.array([0.2, 0.6])
        got = integrate_circuit(ff, {"set": 2.0, "reset": 0.0}, x0, 10.0, dt=0.02,
                                noise=1e-2, gen=SeededRng(8).generator())
        ref = reference_integrate(ff, {"set": 2.0, "reset": 0.0}, x0, 10.0, 0.02,
                                  noise=1e-2, gen=SeededRng(8).generator())
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_recovery_probe_matches_per_trial(self, seed):
        ff = build_gate("FLIPFLOP")
        x_base = np.array([0.98, 0.02])
        for delta in (0.3, 8.0):
            got = recovery_probe(ff, x_base, delta, T=10.0, trials=12, rng=SeededRng(seed))
            ref = reference_recovery(ff, x_base, delta, 10.0, 12, SeededRng(seed), READOUT)
            assert got == ref

    def test_gates_csv_matches_golden(self, tmp_path):
        assert cli_main(["gates", "--seed", "0", "--out", str(tmp_path), "--quiet"]) == 0
        with open(os.path.join(GOLDEN, "gates.csv"), "rb") as fh:
            assert (tmp_path / "gates.csv").read_bytes() == fh.read()
