import numpy as np
import pytest

from metrilab.cce import preserved_information
from metrilab.circuits import (
    CircuitGraph,
    CircuitStack,
    GateParams,
    LogicalReadout,
    NodeSpec,
    build_gate,
    flipflop_space,
    integrate_circuit,
    latch_holds,
    logical_table,
    read_latch,
    run_flipflop,
    settle_and_read,
    verify_truth_table,
)
from metrilab.errors import AmbiguousStateError, InvalidGateParamsError, NonFixedPointError, NoSettleError
from metrilab.numerics import SeededRng

READOUT = LogicalReadout()
ALL_GATES = ("NOT", "AND", "OR", "NAND", "NOR", "XOR")


def logistic(z):
    """The activation law, written out apart from the library's."""
    return 1.0 / (1.0 + np.exp(-z))


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
        g = build_gate("NOT", GateParams(w=8.0, b_not=4.0, gain=1.0))
        assert settle_and_read(g, [{"in": 1.0}], READOUT).labels[0]["out"] == 0
        assert settle_and_read(g, [{"in": 0.0}], READOUT).labels[0]["out"] == 1

    def test_and_only_both_high(self):
        g = build_gate("AND")
        for a, b in ((0, 0), (0, 1), (1, 0)):
            assert settle_and_read(g, [{"in1": a, "in2": b}], READOUT).labels[0]["out"] == 0
        assert settle_and_read(g, [{"in1": 1, "in2": 1}], READOUT).labels[0]["out"] == 1

    def test_or_whenever_either_high(self):
        g = build_gate("OR")
        assert settle_and_read(g, [{"in1": 0, "in2": 0}], READOUT).labels[0]["out"] == 0
        assert settle_and_read(g, [{"in1": 1, "in2": 0}], READOUT).labels[0]["out"] == 1

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
                assert settle_and_read(g, [{"in1": a, "in2": b}], READOUT).labels[0]["out"] == 0
        for a in (0.8, 1.0):
            for b in (0.85, 1.0):
                assert settle_and_read(g, [{"in1": a, "in2": b}], READOUT).labels[0]["out"] == 1

    def test_degenerate_threshold_rejected(self):
        with pytest.raises(InvalidGateParamsError):
            build_gate("AND", GateParams(theta_and=1.0))

    def test_flipflop_low_gain_rejected(self):
        with pytest.raises(InvalidGateParamsError):
            build_gate("FLIPFLOP", GateParams(g_ff=0.5))

    def test_saturated_gain_builds(self):
        # at gain 1000 the logistic's exp overflows to inf, and 1 / (1 + inf)
        # is the exact 0 it saturates to: no RuntimeWarning
        g = build_gate("AND", GateParams(gain=1000.0))
        assert verify_truth_table(g, logical_table("AND"), READOUT).passed


def interval_edges(readout):
    """(value, label) at and just beside each interval edge, plus NaN."""
    lo, hi = readout.low_max, readout.high_min
    return [(0.0, 0), (lo, 0), (np.nextafter(lo, 1.0), -1), (0.5 * (lo + hi), -1),
            (np.nextafter(hi, 0.0), -1), (hi, 1), (1.0, 1), (np.nan, -1)]


class TestLabels:
    READOUTS = (READOUT, LogicalReadout(low_max=0.3, high_min=0.6))

    @pytest.mark.parametrize("readout", READOUTS, ids=("default", "narrow"))
    def test_scalar_at_the_edges(self, readout):
        for value, label in interval_edges(readout):
            got = readout.labels(value)
            assert got.shape == () and got == label, value
            assert reference_label(readout, value) == (None if label < 0 else label)

    @pytest.mark.parametrize("readout", READOUTS, ids=("default", "narrow"))
    def test_steps_rows_ports_array_is_elementwise(self, readout):
        values, labels = map(np.array, zip(*interval_edges(readout)))
        order = np.random.default_rng(1).permutation(np.tile(np.arange(8), 3))
        got = readout.labels(values[order].reshape(4, 3, 2))  # (steps, rows, ports)
        assert got.shape == (4, 3, 2)
        assert np.array_equal(got, labels[order].reshape(4, 3, 2))


class TestSettle:
    def test_fixed_point_matches_bisection_oracle(self):
        p = GateParams()
        g = build_gate("AND")
        settled = settle_and_read(g, [{"in1": 1.0, "in2": 0.0}], READOUT)
        labels, state = settled.labels[0], settled.states[0]
        assert labels["out"] == 0
        oracle = bisect_fixed_point(p.w * 1.0 + p.w * 0.0 - p.theta_and, p.gain)
        assert abs(state[0] - oracle) < 1e-3

    def test_idempotent_on_settled_state(self):
        g = build_gate("OR")
        settled = settle_and_read(g, [{"in1": 1.0, "in2": 0.0}], READOUT)
        labels, state = settled.labels[0], settled.states[0]
        again = settle_and_read(g, [{"in1": 1.0, "in2": 0.0}], READOUT, x0=[state]).labels[0]
        assert again == labels

    def test_no_settle_error_reports_state(self):
        # an oscillator node can never satisfy a fixed-point readout
        circ = CircuitGraph({"o": NodeSpec("oscillator", {"omega": 2.0})}, [],
                            {"in": [("o", 1.0)]}, {"out": "o"})
        with pytest.raises(NoSettleError) as err:
            settle_and_read(circ, [{"in": 0.0}], LogicalReadout(t_max=5.0))
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

    def test_hold_ending_in_the_band_between_pulses_is_skipped(self):
        # the 0.05-long hold between the two set pulses ends with the latch
        # still switching, inside the undecided band: no bit is read there
        ff = build_gate("FLIPFLOP")
        readings, ledger = run_flipflop(ff, [("set", 2.0, 2.4), ("set", 2.45, 8.0)], READOUT,
                                        hold_after=30.0)
        assert readings == [(38.0, 1)]
        assert len(ledger) == 0

    def test_pulse_at_time_zero_skips_the_empty_first_hold(self):
        ff = build_gate("FLIPFLOP")
        readings, _ = run_flipflop(ff, [("set", 0.0, 5.0)], READOUT, hold_after=30.0)
        assert readings == [(35.0, 1)]

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
    """Per-row vector field: the drive x . W^T plus the port injection, summed
    in the library's order, then each node kind's law under its boolean mask."""
    n = circuit.dim
    idx = {m: i for i, m in enumerate(circuit.node_names)}
    W = np.zeros((n, n))
    for src, dst, w in circuit.edges:
        W[idx[dst], idx[src]] += w
    WT = W.T.copy()
    u = np.zeros(n)
    for port, value in inputs.items():
        for node, w in circuit.input_ports[port]:
            u[idx[node]] += w * value
    params = [circuit.nodes[m].params for m in circuit.node_names]
    kinds = np.array([circuit.nodes[m].kind for m in circuit.node_names])
    bias = np.array([p.get("bias", 0.0) for p in params])
    gain = np.array([p.get("gain", GateParams.gain) for p in params])
    leak = np.array([p.get("leak", 1.0) for p in params])
    omega = np.array([p.get("omega", 0.0) for p in params])
    a, i, o = kinds == "activation", kinds == "integrator", kinds == "oscillator"

    def f(x):
        v = np.dot(x, WT) + u
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


def reference_label(readout, value):
    """The interval rule for one value, None in the forbidden band."""
    if value <= readout.low_max:
        return 0
    if value >= readout.high_min:
        return 1
    return None


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
        labels = {port: reference_label(readout, circuit.state_of(x, node))
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


def assert_rows_match_reference(circuit, rows, x0=None, noise=0.0, rngs=None):
    batch = settle_and_read(circuit, rows, READOUT, x0=x0, noise=noise, rng=rngs)
    for i, row in enumerate(rows):
        labels, state, step = reference_settle(
            circuit, row, READOUT, x0=None if x0 is None else x0[i], noise=noise,
            rng=None if rngs is None else rngs[i])
        assert batch.labels[i] == labels
        assert batch.steps[i] == step
        assert np.array_equal(batch.states[i], state)


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
        alone = settle_and_read(g, [{"in1": 1.0, "in2": 0.0}], READOUT, noise=1e-3,
                                rng=[SeededRng(2)])
        labels, state = alone.labels[0], alone.states[0]
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
        got = integrate_circuit(ff, {"set": 2.0, "reset": 0.0}, x0[None], 10.0, dt=0.02,
                                noise=1e-2, gen=[SeededRng(8).generator()])
        ref = reference_integrate(ff, {"set": 2.0, "reset": 0.0}, x0, 10.0, 0.02,
                                  noise=1e-2, gen=SeededRng(8).generator())
        assert np.array_equal(got[:, 0], ref)


def reference_latch_holds(circuit, schedule, readout, hold_after, noise=0.0, gen=None):
    """One latch run, 1-D and per step: (t, state) at the end of each
    post-pulse hold, for a schedule of separated pulses."""
    x = np.zeros(circuit.dim)
    holds, t = [], 0.0
    segments = []
    for port, t_on, t_off in sorted(schedule, key=lambda q: q[1]):
        segments += [(t_on, {}), (t_off, {port: 2.0})]
    segments.append((segments[-1][0] + hold_after, {}))
    for t_end, pulse in segments:
        x = reference_integrate(circuit, {"set": 0.0, "reset": 0.0, **pulse}, x, t_end - t,
                                readout.dt, noise=noise, gen=gen)[-1]
        if not pulse and t > 0.0:
            holds.append((t_end, x))
        t = t_end
    return holds


LATCH_SCHEDULE = [("set", 5.0, 10.0), ("reset", 40.0, 45.0)]


class TestMixedNoiseBatches:
    """A batch whose rows carry different noise levels reads each row as the
    batch of its own level does."""

    @staticmethod
    def assert_mixed_equals_split(circuit, rows, level, rngs, x0=None):
        n = len(rows)
        mixed = settle_and_read(circuit, rows * 2, READOUT, x0=None if x0 is None else np.vstack([x0, x0]),
                                noise=[0.0] * n + [level] * n, rng=[None] * n + rngs)
        clean = settle_and_read(circuit, rows, READOUT, x0=x0)
        noisy = settle_and_read(circuit, rows, READOUT, x0=x0, noise=level, rng=rngs)
        assert mixed.labels == clean.labels + noisy.labels
        assert mixed.steps.tolist() == clean.steps.tolist() + noisy.steps.tolist()
        assert np.array_equal(mixed.states, np.vstack([clean.states, noisy.states]))

    @pytest.mark.parametrize("level", (0.0, 1e-3))
    @pytest.mark.parametrize("kind", ALL_GATES)
    def test_gate_table_at_two_levels(self, kind, level):
        rows = [row for row, _ in logical_table(kind)]
        rngs = [SeededRng(13).derive(j) for j in range(len(rows))]
        self.assert_mixed_equals_split(build_gate(kind), rows, level, rngs)

    @pytest.mark.parametrize("level", (0.0, 1e-3))
    def test_flipflop_hold_at_two_levels(self, level):
        rngs = [SeededRng(4).derive(j) for j in range(2)]
        self.assert_mixed_equals_split(build_gate("FLIPFLOP"), [{"set": 0.0, "reset": 0.0}] * 2,
                                       level, rngs, x0=np.eye(2))

    @staticmethod
    def assert_noisy_half_raises_as_alone(circuit, rows, readout, level, error):
        n = len(rows)
        rngs = [SeededRng(6).derive(j) for j in range(n)]
        with pytest.raises(error) as alone:
            settle_and_read(circuit, rows, readout, noise=level, rng=rngs)
        with pytest.raises(error) as batch:
            settle_and_read(circuit, rows * 2, readout, noise=[0.0] * n + [level] * n,
                            rng=[None] * n + rngs)
        assert str(batch.value) == str(alone.value)
        return alone.value, batch.value

    def test_noisy_half_that_cannot_settle_raises_as_alone(self):
        # the clean AND table settles; at noise 1 the state keeps crossing the band
        rows = [row for row, _ in logical_table("AND")]
        alone, batch = self.assert_noisy_half_raises_as_alone(build_gate("AND"), rows, READOUT, 1.0,
                                                              NoSettleError)
        assert np.array_equal(batch.final_state, alone.final_state)

    def test_noisy_half_that_keeps_moving_raises_as_alone(self):
        # a clean oscillator with zero net drive settles; with a drift of 1e-3
        # and noise 1e-6 (tol 1e-4) it creeps inside the low interval
        circ = CircuitGraph({"o": NodeSpec("oscillator", {"omega": 2.0})}, [],
                            {"in": [("o", 1.0)]}, {"out": "o"})
        readout = LogicalReadout(t_max=5.0)
        assert settle_and_read(circ, [{"in": -2.0}], readout).labels == [{"out": 0}]
        self.assert_noisy_half_raises_as_alone(circ, [{"in": -2.0 + 1e-3}], readout, 1e-6,
                                               NonFixedPointError)

    @pytest.mark.parametrize("params", (GateParams(), GateParams(h_ff=2.5)), ids=("default", "h_ff"))
    def test_two_row_latch_reads_as_two_runs(self, params):
        ff = build_gate("FLIPFLOP", params)
        holds = latch_holds(ff, LATCH_SCHEDULE, READOUT, np.zeros((2, 2)), hold_after=30.0,
                            noise=(0.0, 1e-3), gen=[None, SeededRng(7).generator()])
        for h, (noise, rng) in enumerate(((0.0, None), (1e-3, SeededRng(7)))):
            row = [(t, x[h]) for t, x in holds]
            # the row integrated alone as a 1-row batch, and the per-step reference
            alone = latch_holds(ff, LATCH_SCHEDULE, READOUT, np.zeros((1, 2)), hold_after=30.0,
                                noise=noise, gen=[None if rng is None else rng.generator()])
            ref = reference_latch_holds(ff, LATCH_SCHEDULE, READOUT, 30.0, noise=noise,
                                        gen=None if rng is None else rng.generator())
            assert [t for t, _ in row] == [t for t, _ in alone] == [t for t, _ in ref] == [40.0, 75.0]
            assert all(np.array_equal(x, y[0]) for (_, x), (_, y) in zip(row, alone))
            assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(row, ref))
            readings, ledger = read_latch(ff, row, READOUT, pulsed=True)
            alone, alone_ledger = run_flipflop(ff, LATCH_SCHEDULE, READOUT, hold_after=30.0,
                                               noise=noise, rng=rng)
            assert readings == alone
            assert ledger.entries == alone_ledger.entries
            if h == 0:  # the reset pulse cannot switch the h_ff = 2.5 latch
                assert [b for _, b in readings] == ([1, 0] if params.h_ff == 2.0 else [1, 1])


class TestCircuitStack:
    """Rows of different gates settled as one CircuitStack batch read as each
    gate's own batch does, in the gate's columns; the padding rests at 0."""

    @staticmethod
    def stacked_and_alone(kinds, levels, seed=3):
        circuits, inputs, noise, rngs, alone = [], [], [], [], []
        for i, kind in enumerate(kinds):
            gate, rows = build_gate(kind), [row for row, _ in logical_table(kind)]
            for level in levels:
                row_rngs = [SeededRng(seed).derive(i).derive(j) for j in range(len(rows))]
                alone.append((gate, settle_and_read(gate, rows, READOUT, noise=level,
                                                    rng=row_rngs if level else None)))
                circuits += [gate] * len(rows)
                inputs += rows
                noise += [level] * len(rows)
                rngs += row_rngs if level else [None] * len(rows)
        return settle_and_read(CircuitStack(circuits), inputs, READOUT, noise=noise, rng=rngs), alone

    @pytest.mark.parametrize("levels", ((0.0,), (1e-3,), (0.0, 1e-3), (1e-3, 0.0)))
    def test_stacked_gates_read_as_each_gate_alone(self, levels):
        stacked, alone = self.stacked_and_alone(ALL_GATES, levels)
        start = 0
        for gate, part in alone:
            rows, pad = slice(start, start + len(part.labels)), 4 - gate.dim
            assert stacked.labels[rows] == part.labels
            assert stacked.steps[rows].tolist() == part.steps.tolist()
            assert np.array_equal(stacked.states[rows, pad:], part.states)
            assert (stacked.states[rows, :pad] == 0.0).all()
            start += len(part.labels)
        assert start == len(stacked.labels) == 22 * len(levels)

    def test_field_is_each_circuits_field(self):
        gates = [build_gate(kind) for kind in ALL_GATES]
        stack = CircuitStack(gates)
        x = np.random.default_rng(0).random((len(gates), 4))
        inputs = [{"in": 1.0} if g.name == "NOT" else {"in1": 1.0, "in2": 0.0} for g in gates]
        dx = stack.field(x, stack.injection(inputs))
        for r, (g, row) in enumerate(zip(gates, inputs)):
            assert np.array_equal(dx[r, 4 - g.dim:], g.field(x[r, 4 - g.dim:], g.injection(row)))

    def test_unsettled_row_raises_as_its_gate_alone(self):
        # NOT settles clean; AND at noise 1 keeps crossing the band
        rows = [row for row, _ in logical_table("AND")]
        rngs = [SeededRng(6).derive(j) for j in range(4)]
        with pytest.raises(NoSettleError) as alone:
            settle_and_read(build_gate("AND"), rows, READOUT, noise=1.0, rng=rngs)
        stack = CircuitStack([build_gate("NOT")] * 2 + [build_gate("AND")] * 4)
        with pytest.raises(NoSettleError) as stacked:
            settle_and_read(stack, [{"in": 0.0}, {"in": 1.0}] + rows, READOUT,
                            noise=[0.0, 0.0] + [1.0] * 4, rng=[None, None] + rngs)
        assert str(stacked.value) == str(alone.value)
        assert np.array_equal(stacked.value.final_state, alone.value.final_state)

    def test_unstackable_circuits_raise(self):
        with pytest.raises(ValueError, match="activation"):
            CircuitStack([build_gate("NOT"), CircuitGraph({"o": NodeSpec("oscillator")}, [], {},
                                                          {"out": "o"}, name="osc")])
        # NAND's encoding node is its last one, the flip-flop's q its first
        with pytest.raises(ValueError, match="columns"):
            CircuitStack([build_gate("NAND"), build_gate("FLIPFLOP")])


class TestNoiseNeedsAGenerator:
    def test_integrate_without_generator_raises(self):
        with pytest.raises(ValueError):
            integrate_circuit(build_gate("FLIPFLOP"), {"set": 2.0, "reset": 0.0}, [0.2, 0.6], 1.0, noise=5.0)

    def test_row_without_generator_raises(self):
        ff = build_gate("FLIPFLOP")
        with pytest.raises(ValueError, match="row 1"):
            integrate_circuit(ff, {"set": 0.0, "reset": 0.0}, np.eye(2), 1.0, noise=[0.0, 1e-3],
                              gen=[SeededRng(1).generator(), None])
        # a noiseless row needs no generator
        got = integrate_circuit(ff, {"set": 0.0, "reset": 0.0}, np.eye(2), 1.0, noise=[0.0, 1e-3],
                                gen=[None, SeededRng(1).generator()])
        assert np.array_equal(got[:, 0], integrate_circuit(ff, {"set": 0.0, "reset": 0.0}, [1.0, 0.0], 1.0))

    def test_noisy_rows_apart_draw_as_alone(self):
        ff = build_gate("FLIPFLOP")
        x0 = np.array([[0.2, 0.6], [0.7, 0.1], [0.4, 0.5]])
        got = integrate_circuit(ff, {"set": 2.0, "reset": 0.0}, x0, 1.0, noise=[1e-3, 0.0, 2e-3],
                                gen=[SeededRng(1).generator(), None, SeededRng(2).generator()])
        for r, (level, rng) in enumerate(((1e-3, SeededRng(1)), (0.0, None), (2e-3, SeededRng(2)))):
            alone = integrate_circuit(ff, {"set": 2.0, "reset": 0.0}, x0[r : r + 1], 1.0, noise=level,
                                      gen=[None if rng is None else rng.generator()])
            assert np.array_equal(got[:, r], alone[:, 0])

    def test_noisy_single_state_raises(self):
        # noise is drawn per row: one state integrates as a 1-row batch
        with pytest.raises(ValueError, match="batch"):
            integrate_circuit(build_gate("FLIPFLOP"), {"set": 2.0, "reset": 0.0}, [0.2, 0.6], 1.0,
                              noise=1e-2, gen=[SeededRng(1).generator()])

    def test_run_flipflop_without_rng_raises(self):
        with pytest.raises(ValueError):
            run_flipflop(build_gate("FLIPFLOP"), [("set", 5.0, 10.0)], READOUT, hold_after=30.0, noise=3.0)

    def test_settle_without_rng_raises(self):
        with pytest.raises(ValueError):
            settle_and_read(build_gate("AND"), [{"in1": 1.0, "in2": 0.0}], READOUT, noise=1e-3)
