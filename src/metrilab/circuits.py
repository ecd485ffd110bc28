"""Continuous dynamical circuits: node primitives, gate library, settle-and-read.

Nodes are scalar dynamical systems (leaky integrator, saturating activation,
phase oscillator) wired by weighted directed edges. Logic emerges from
attractor selection: a gate is read by letting the state relax with inputs
clamped and mapping encoding-port states through disjoint logical intervals
(low = [0, low_max], high = [high_min, 1]); the band in between is forbidden.

Gate constants live in GateParams. Thresholds sit mid-gap between the
worst-case drive sums of adjacent truth-table rows so that any analog input
level inside a logical interval yields the same output label.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cce import EncodingSpace, IrreversibilityLedger
from .errors import (
    AmbiguousStateError,
    InvalidGateParamsError,
    NonFixedPointError,
    NoSettleError,
)
from .numerics import SeededRng, rk4_step


@dataclass(frozen=True)
class GateParams:
    """Shipped-gate constants; `[gates]` (config.GatesConfig) overrides them."""

    gain: float = 8.0     # logistic steepness
    w: float = 1.0        # input weight
    theta_and: float = 1.4
    theta_or: float = 0.6
    b_not: float = 0.5    # = 0.5 * w
    g_ff: float = 2.0     # flip-flop self-excitation (> 1)
    h_ff: float = 2.0     # flip-flop mutual inhibition


PULSE_AMPLITUDE = 2.0  # set/reset drive of run_flipflop's pulses

NODE_KINDS = ("integrator", "activation", "oscillator")


def logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class NodeSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == "integrator" and self.params.get("leak", 1.0) <= 0:
            raise ValueError("integrator leak must be positive")
        if self.kind == "oscillator" and self.params.get("omega", 1.0) <= 0:
            raise ValueError("oscillator omega must be positive")


@dataclass
class LogicalReadout:
    low_max: float = 0.2
    high_min: float = 0.8
    t_max: float = 50.0
    window: float = 5.0
    tol: float = 1e-4
    dt: float = 0.02

    def __post_init__(self):
        if not self.low_max < self.high_min:
            raise ValueError("forbidden band must be nonempty (low_max < high_min)")

    def label(self, value):
        if value <= self.low_max:
            return 0
        if value >= self.high_min:
            return 1
        return None


class CircuitGraph:
    """Directed graph of scalar nodes with weighted-sum aggregation.

    Ports: `input_ports` maps an external port name to weighted injection
    points; every node state is an output port addressable by node name;
    `encoding_ports` name the states carrying the logical value. Context
    parameters live in each NodeSpec.
    """

    def __init__(self, nodes, edges, input_ports, encoding_ports, name=""):
        self.name = name
        self.node_names = list(nodes)
        self.nodes = dict(nodes)
        self.edges = list(edges)
        self.input_ports = {k: list(v) for k, v in input_ports.items()}
        self.encoding_ports = dict(encoding_ports)
        self._index = {n: i for i, n in enumerate(self.node_names)}
        self._validate()
        n = len(self.node_names)
        W = np.zeros((n, n))
        for src, dst, w in self.edges:
            W[self._index[dst], self._index[src]] += w
        self._WT = W.T.copy()
        self._bias = np.array([self.nodes[m].params.get("bias", 0.0) for m in self.node_names])
        self._gain = np.array([self.nodes[m].params.get("gain", GateParams.gain) for m in self.node_names])
        self._neg_gain = -self._gain
        self._leak = np.array([self.nodes[m].params.get("leak", 1.0) for m in self.node_names])
        self._omega = np.array([self.nodes[m].params.get("omega", 0.0) for m in self.node_names])
        kinds = np.array([self.nodes[m].kind for m in self.node_names])
        self._intg, self._act, self._osc = (kinds == k for k in NODE_KINDS)
        self._all_act = bool(self._act.all())

    def _validate(self):
        for src, dst, _ in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge ({src!r} -> {dst!r}) references undeclared node")
        for port, targets in self.input_ports.items():
            for node, _ in targets:
                if node not in self.nodes:
                    raise ValueError(f"input port {port!r} targets undeclared node {node!r}")
        for port, node in self.encoding_ports.items():
            if node not in self.nodes:
                raise ValueError(f"encoding port {port!r} reads undeclared node {node!r}")

    @property
    def dim(self):
        return len(self.node_names)

    def injection(self, inputs):
        """Input drive each node receives from clamped ports: shape (n,) for
        one inputs dict, (rows, n) for a list of them."""
        rows = [inputs] if isinstance(inputs, dict) else list(inputs)
        U = np.zeros((len(rows), self.dim))
        for r, row in enumerate(rows):
            for port, value in row.items():
                if port not in self.input_ports:
                    raise ValueError(f"unknown input port {port!r}")
                for node, w in self.input_ports[port]:
                    U[r, self._index[node]] += w * value
        return U[0] if isinstance(inputs, dict) else U

    def drive(self, x, u):
        return np.dot(x, self._WT) + u

    def field(self, x, u):
        """Vector field at states x, shape (n,) or (rows, n), under the input
        injection u from `injection` (broadcast against x)."""
        v = self.drive(x, u)
        if self._all_act:
            # logistic(gain * (v + bias)) - x, with the sign folded into the gain
            return 1.0 / (1.0 + np.exp(self._neg_gain * (v + self._bias))) - x
        dx = np.empty_like(v)
        a, i, o = self._act, self._intg, self._osc
        dx[..., a] = logistic(self._gain[a] * (v[..., a] + self._bias[a])) - x[..., a]
        dx[..., i] = v[..., i] - self._leak[i] * x[..., i]
        dx[..., o] = self._omega[o] + v[..., o]
        return dx

    def state_of(self, x, node):
        return float(x[self._index[node]])


class CircuitStack:
    """All-activation circuits that settle as one batch, row i running
    circuits[i]: settle_and_read and integrate_circuit take a stack where
    they take a CircuitGraph, with one inputs dict per row.

    Each circuit's nodes are right-aligned in a state of the widest
    circuit's width. The padding nodes in front of them have no edges and
    draw no noise; their field is 1/2 - (x + 1/2), so from 0 they stay at 0.
    Every circuit must hold each encoding port in the same right-aligned
    column, so that the labels are read at one column for every row."""

    def __init__(self, circuits):
        self.circuits = list(circuits)
        self.widths = [c.dim for c in self.circuits]
        n = self.dim = max(self.widths)
        first = self.circuits[0]
        self.encoding_ports = dict(first.encoding_ports)
        self._index = {node: n - first.dim + first._index[node] for node in self.encoding_ports.values()}
        rows = len(self.circuits)
        self._WT = np.zeros((rows, n, n))
        self._bias = np.zeros((rows, n))
        self._neg_gain = np.zeros((rows, n))
        self._pad = np.full((rows, n), 0.5)  # cancels a padding node's logistic(0) = 1/2
        for r, c in enumerate(self.circuits):
            cols = {port: n - c.dim + c._index[node] for port, node in c.encoding_ports.items()}
            if not c._all_act or cols != {p: self._index[v] for p, v in self.encoding_ports.items()}:
                raise ValueError(f"{c.name or 'circuit'} cannot join the stack: it needs only activation "
                                 "nodes and the encoding ports in the columns of the first circuit")
            self._WT[r, n - c.dim:, n - c.dim:] = c._WT
            self._bias[r, n - c.dim:] = c._bias
            self._neg_gain[r, n - c.dim:] = c._neg_gain
            self._pad[r, n - c.dim:] = 0.0

    def injection(self, inputs):
        U = np.zeros((len(inputs), self.dim))
        for r, (c, row) in enumerate(zip(self.circuits, inputs)):
            U[r, self.dim - c.dim:] = c.injection(row)
        return U

    def field(self, x, u):
        """CircuitGraph.field of every row's circuit, for states (rows, n);
        x + 0.0 is x, so a circuit's own columns are unchanged by the padding."""
        v = np.matmul(x[:, None, :], self._WT)[:, 0] + u
        return 1.0 / (1.0 + np.exp(self._neg_gain * (v + self._bias))) - (x + self._pad)


def integrate_circuit(circuit: CircuitGraph, inputs, x0, T, dt=0.02, noise=0.0, gen=None):
    """Clamped-input RK4 integration (plus optional additive state noise) of
    one state (n,) or a batch (rows, n); returns the time series including
    the initial state, shape (steps + 1,) + x0.shape.

    `gen` is one Generator, drawing every row's noise at the one level
    `noise`, or for a batch a list with one per row: row i draws from gen[i]
    alone at level noise[i] (or at `noise` when it is one level), and a
    noiseless row may hold None. Noise > 0 without a generator raises
    ValueError. `circuit` may also be a CircuitStack, whose row i draws noise
    for its own circuit's nodes only."""
    steps = int(round(T / dt))
    x = np.array(x0, dtype=float)
    u = circuit.injection(inputs)
    f = lambda s: circuit.field(s, u)
    kicks = _state_kicks(circuit, noise, gen, steps, x.shape, dt)
    out = np.empty((steps + 1,) + x.shape)
    out[0] = x
    for k in range(steps):
        x = rk4_step(f, x, dt)
        if kicks is not None:
            x = x + kicks[k]  # a noiseless row adds exact zeros
        out[k + 1] = x
    return out


def _state_kicks(circuit, noise, gen, steps, shape, dt):
    """Each step's additive noise for integrate_circuit, zero on noiseless
    rows; None when no row is noisy."""
    levels = np.asarray(noise, dtype=float)
    if not (levels > 0.0).any():
        return None
    if gen is None:
        raise ValueError("state noise > 0 needs a generator")
    if isinstance(gen, np.random.Generator):
        if levels.ndim:
            raise ValueError("one generator draws at one noise level: give one generator per row")
        kicks = gen.standard_normal((steps,) + shape)
        kicks *= noise * np.sqrt(dt)
        return kicks
    levels = np.broadcast_to(levels, (len(gen),))
    kicks = np.zeros((steps,) + shape)
    for r in np.flatnonzero(levels > 0.0):
        if gen[r] is None:
            raise ValueError(f"row {r} has state noise {levels[r]} but no generator")
        w = circuit.widths[r] if isinstance(circuit, CircuitStack) else shape[1]
        kicks[:, r, shape[1] - w:] = gen[r].standard_normal((steps, w)) * (levels[r] * np.sqrt(dt))
    return kicks


_SETTLE_CHUNK = 32  # steps integrated between settle checks

# per row of a batched settle: labels, state and step number where it settled
SettledRows = namedtuple("SettledRows", "labels states steps")


def settle_and_read(circuit: CircuitGraph, inputs, readout: LogicalReadout,
                    x0=None, noise=0.0, rng=None) -> SettledRows:
    """Integrate with inputs clamped until every encoding-port state has sat
    inside a single logical interval for a full window, then read the labels.

    `inputs` is a list of inputs dicts, settled as one batch; `x0` holds one
    state and `rng` one SeededRng per row (None for a noiseless row), `noise`
    is one state-noise level or one per row, and every row reads exactly as
    if it had been settled alone. A row's settle tolerance is `tol` when it
    is noiseless and max(tol, 8 * noise) otherwise. `circuit` may be a
    CircuitStack, one circuit per row.

    Raises NoSettleError if an encoding state is still in the forbidden band
    at t_max, and NonFixedPointError if labels are stable but the state keeps
    moving by more than `tol` across the window (limit cycle inside an
    interval); in a batch, for the lowest-index row that did not settle."""
    rows, n = len(inputs), circuit.dim
    dt = readout.dt
    steps = int(round(readout.t_max / dt))
    window = max(1, int(round(readout.window / dt)))
    levels = np.broadcast_to(np.asarray(noise, dtype=float), (rows,))
    tol = np.where(levels == 0.0, readout.tol, np.maximum(readout.tol, 8.0 * levels))
    gens = None if rng is None else [
        None if r is None or level == 0.0 else r.generator() for r, level in zip(rng, levels)]
    enc = [circuit._index[node] for node in circuit.encoding_ports.values()]

    # Steps run in chunks; labels, run lengths and the window move of a chunk
    # are checked after it, and a row's result is taken from the first step
    # that met the settle condition. buf holds states s - window .. s + chunk
    # for the chunk starting at step s, with state s at index `window`.
    buf = np.empty((window + _SETTLE_CHUNK + 1, rows, n))
    buf[window] = 0.0 if x0 is None else x0
    run_labels = np.full((rows, len(enc)), -2)   # labels at the step before the chunk
    run_len = np.zeros(rows, dtype=int)
    done = np.zeros(rows, dtype=bool)
    settled = SettledRows([None] * rows, np.empty((rows, n)), np.zeros(rows, dtype=int))
    for s in range(0, steps, _SETTLE_CHUNK):
        m = min(_SETTLE_CHUNK, steps - s)
        buf[window : window + m + 1] = integrate_circuit(circuit, inputs, buf[window], m * dt, dt, levels, gens)
        e = buf[window + 1 : window + 1 + m][:, :, enc]
        labels = np.where(e <= readout.low_max, 0, np.where(e >= readout.high_min, 1, -1))
        prev = np.concatenate([run_labels[None], labels[:-1]])
        at = np.arange(m)[:, None]
        start = np.maximum.accumulate(np.where((labels != prev).any(axis=2), at, -1), axis=0)
        length = np.where(start >= 0, at - start + 1, run_len + at + 1)
        length[(labels < 0).any(axis=2)] = 0
        kk, rr = np.nonzero((length >= window) & ~done)
        still = np.abs(buf[window + 1 + kk, rr] - buf[kk + 1, rr]).max(axis=1) <= tol[rr]
        for k, r in zip(kk[still], rr[still]):
            if not done[r]:
                done[r] = True
                settled.labels[r] = dict(zip(circuit.encoding_ports, labels[k, r].tolist()))
                settled.states[r] = buf[window + 1 + k, r]
                settled.steps[r] = s + 1 + k
        if done.all():
            break
        run_labels, run_len = labels[-1], length[-1]
        buf[: window + 1] = buf[m : m + window + 1]
    else:
        i = int(np.flatnonzero(~done)[0])
        if run_len[i] >= window:
            raise NonFixedPointError(
                f"labels held but the state kept moving past t_max={readout.t_max} "
                "(non-fixed-point attractor inside a logical interval)")
        raise NoSettleError(f"no settle within t_max={readout.t_max}", final_state=buf[window, i].copy())
    return settled


# ---------------------------------------------------------------------------
# gate construction
# ---------------------------------------------------------------------------

def _activation_node(gain, bias):
    return NodeSpec("activation", {"gain": gain, "bias": bias})


def _feedforward_fixed_points(circuit: CircuitGraph, rows):
    """Exact attractors of an acyclic gate by forward propagation, one per
    inputs dict in rows."""
    u = circuit.injection(rows)
    x = np.zeros_like(u)
    # iterate n passes: suffices for any topological depth <= n
    for _ in range(circuit.dim):
        x = logistic(circuit._gain * (circuit.drive(x, u) + circuit._bias))
    return x


def _validate_combinational(circuit, truth):
    readout = LogicalReadout()
    states = _feedforward_fixed_points(circuit, [row for row, _ in truth])
    for (row_inputs, expected), x in zip(truth, states):
        for port, want in expected.items():
            got = readout.label(circuit.state_of(x, circuit.encoding_ports[port]))
            if got != want:
                raise InvalidGateParamsError(
                    f"{circuit.name}: corner {row_inputs} settles to "
                    f"{circuit.state_of(x, circuit.encoding_ports[port]):.3f} "
                    f"(label {got}), expected {want}")


TRUTH_TABLES = {
    "NOT": [((0,), 1), ((1,), 0)],
    "AND": [((0, 0), 0), ((0, 1), 0), ((1, 0), 0), ((1, 1), 1)],
    "OR": [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1)],
    "NAND": [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)],
    "NOR": [((0, 0), 1), ((0, 1), 0), ((1, 0), 0), ((1, 1), 0)],
    "XOR": [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)],
}


def logical_table(kind):
    """Truth table rows for verify_truth_table, with canonical analog levels."""
    table = TRUTH_TABLES[kind.upper()]
    if kind.upper() == "NOT":
        return [({"in": float(v)}, {"out": out}) for (v,), out in table]
    return [({"in1": float(a), "in2": float(b)}, {"out": out}) for (a, b), out in table]


def build_gate(kind, p: GateParams = GateParams()) -> CircuitGraph:
    """Construct one of the shipped gates; raises InvalidGateParamsError when
    the parameters do not reproduce the gate's attractor structure at the
    four (or two) logical input corners."""
    kind = kind.upper()
    gain, w = p.gain, p.w

    if kind == "NOT":
        nodes = {"y": _activation_node(gain, p.b_not)}
        circ = CircuitGraph(nodes, [], {"in": [("y", -w)]}, {"out": "y"}, name="NOT")
    elif kind in ("AND", "OR"):
        theta = p.theta_and if kind == "AND" else p.theta_or
        nodes = {"y": _activation_node(gain, -theta)}
        circ = CircuitGraph(nodes, [], {"in1": [("y", w)], "in2": [("y", w)]},
                            {"out": "y"}, name=kind)
    elif kind in ("NAND", "NOR"):
        theta = p.theta_and if kind == "NAND" else p.theta_or
        nodes = {"g": _activation_node(gain, -theta), "y": _activation_node(gain, p.b_not)}
        circ = CircuitGraph(nodes, [("g", "y", -w)],
                            {"in1": [("g", w)], "in2": [("g", w)]}, {"out": "y"}, name=kind)
    elif kind == "XOR":
        # AND(NAND(v1, v2), OR(v1, v2))
        nodes = {
            "a": _activation_node(gain, -p.theta_and),
            "na": _activation_node(gain, p.b_not),
            "o": _activation_node(gain, -p.theta_or),
            "y": _activation_node(gain, -p.theta_and),
        }
        edges = [("a", "na", -w), ("na", "y", w), ("o", "y", w)]
        circ = CircuitGraph(nodes, edges,
                            {"in1": [("a", w), ("o", w)], "in2": [("a", w), ("o", w)]},
                            {"out": "y"}, name="XOR")
    elif kind == "FLIPFLOP":
        g, h = p.g_ff, p.h_ff
        if g <= 1.0:
            raise InvalidGateParamsError("flip-flop self-excitation g must exceed 1")
        nodes = {"A": _activation_node(gain, 0.0), "B": _activation_node(gain, 0.0)}
        edges = [("A", "A", g), ("B", "B", g), ("A", "B", -h), ("B", "A", -h)]
        circ = CircuitGraph(nodes, edges,
                            {"set": [("A", 1.0)], "reset": [("B", 1.0)]},
                            {"q": "A", "qbar": "B"}, name="FLIPFLOP")
        _validate_flipflop(circ)
        return circ
    else:
        raise ValueError(f"unknown gate kind {kind!r}")

    _validate_combinational(circ, logical_table(kind))
    return circ


def _validate_flipflop(circ):
    # rows: A high, then B high
    try:
        held = settle_and_read(circ, [{"set": 0.0, "reset": 0.0}] * 2, LogicalReadout(), x0=np.eye(2))
    except (NoSettleError, NonFixedPointError) as exc:
        raise InvalidGateParamsError(f"flip-flop failed to hold: {exc}") from exc
    for hi, want, labels in zip("AB", ({"q": 1, "qbar": 0}, {"q": 0, "qbar": 1}), held.labels):
        if labels != want:
            raise InvalidGateParamsError(f"flip-flop holds wrong labels from {hi}-high: {labels}")


# ---------------------------------------------------------------------------
# verification and stateful runs
# ---------------------------------------------------------------------------

# the arguments each directive needs; a node may add key=value parameters
_DIRECTIVE_ARGS = {
    "circuit": "name",
    "node": "name kind",
    "edge": "src dst weight",
    "input": "port node weight",
    "encoding": "port node",
}


def load_circuit(text) -> CircuitGraph:
    """Build a circuit from structured text: node / edge / input / encoding lines.

        node  a activation gain=8 bias=-1.4
        node  b activation gain=8 bias=0.5
        edge  a b -1.0
        input in1 a 1.0
        input in2 a 1.0
        encoding out b

    Unknown directives, missing or malformed arguments and references to
    undeclared nodes raise ValueError; a malformed line is named by its
    number.
    """
    nodes = {}
    edges = []
    input_ports = {}
    encoding_ports = {}
    name = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0].lower(), parts[1:]
        if kind not in _DIRECTIVE_ARGS:
            raise ValueError(f"line {lineno}: unknown directive {kind!r}")
        if len(args) < len(_DIRECTIVE_ARGS[kind].split()):
            raise ValueError(f"line {lineno}: {kind} needs {_DIRECTIVE_ARGS[kind]}, got {line!r}")
        try:
            if kind == "circuit":
                name = args[0]
            elif kind == "node":
                params = {}
                for tok in args[2:]:
                    key, eq, val = tok.partition("=")
                    if not eq:
                        raise ValueError(f"node parameter {tok!r} is not key=value")
                    params[key] = float(val)
                nodes[args[0]] = NodeSpec(args[1], params)
            elif kind == "edge":
                edges.append((args[0], args[1], float(args[2])))
            elif kind == "input":
                input_ports.setdefault(args[0], []).append((args[1], float(args[2])))
            else:
                encoding_ports[args[0]] = args[1]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return CircuitGraph(nodes, edges, input_ports, encoding_ports, name=name)


def load_truth_table(text):
    """Parse truth-table CSV rows: header names the input ports then the
    expected encoding ports prefixed with 'out:'; one row per corner. Empty
    text, a row of another width or a cell that is not a number raises
    ValueError, naming the line."""
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("truth table is empty: it needs a header line")
    header = [h.strip() for h in lines[0][1].split(",")]
    in_cols = [h for h in header if not h.startswith("out:")]
    out_cols = [h[4:] for h in header if h.startswith("out:")]
    if not out_cols:
        raise ValueError(f"line {lines[0][0]}: truth table needs at least one out: column")
    table = []
    for lineno, ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: row {ln!r} does not match header width")
        try:
            inputs = {h: float(c) for h, c in zip(in_cols, cells)}
            expected = {h: int(c) for h, c in zip(out_cols, cells[len(in_cols):])}
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        table.append((inputs, expected))
    return table


@dataclass
class TruthTableResult:
    passed: bool
    counterexamples: list


def verify_truth_table(circuit: CircuitGraph, table, readout: LogicalReadout,
                       noise=0.0, rng: Optional[SeededRng] = None) -> TruthTableResult:
    """Settle every row as one batch; rows are (inputs dict, expected label
    dict), and row i draws its noise from rng.derive(i)."""
    rngs = None if rng is None else [rng.derive(i) for i in range(len(table))]
    settled = settle_and_read(circuit, [row for row, _ in table], readout, noise=noise, rng=rngs)
    return judge_table(table, settled.labels)


def judge_table(table, labels) -> TruthTableResult:
    """Compare the settled labels of each row of `table` with its expected
    labels; every mismatching port is one counterexample."""
    bad = [{"inputs": dict(row_inputs), "port": port, "expected": want, "got": got[port]}
           for (row_inputs, expected), got in zip(table, labels)
           for port, want in expected.items() if got[port] != want]
    return TruthTableResult(passed=not bad, counterexamples=bad)


FLIPFLOP_BAND = 0.1  # |x_A - x_B| at or below this stores no bit


def flipflop_space(alpha=1.0) -> EncodingSpace:
    """Two-label encoding over the cross-coupled pair, read on x_A - x_B: the
    sign, with a small undecided band."""
    return EncodingSpace((0, 1), -FLIPFLOP_BAND, FLIPFLOP_BAND, alpha=alpha)


def read_stored_bit(circuit, x, readout):
    la = readout.label(circuit.state_of(x, circuit.encoding_ports["q"]))
    lb = readout.label(circuit.state_of(x, circuit.encoding_ports["qbar"]))
    if la is None or lb is None or la == lb:
        raise AmbiguousStateError(f"flip-flop state q={la} qbar={lb} is not a stored bit")
    return la


def run_flipflop(circuit: CircuitGraph, pulse_schedule, readout: LogicalReadout,
                 x0=None, hold_after=None, noise=0.0, rng: Optional[SeededRng] = None):
    """Apply timed set/reset pulses and track the stored bit.

    pulse_schedule: list of (port, t_on, t_off) with port in {set, reset};
    amplitude is PULSE_AMPLITUDE. Overlapping set and reset pulses raise
    AmbiguousStateError, and noise > 0 without `rng` raises ValueError.
    Returns (list of (time, bit) read after each pulse and at the end of the
    final hold, ledger of bit transitions).
    """
    x = np.zeros(circuit.dim) if x0 is None else np.asarray(x0, dtype=float)
    holds = latch_holds(circuit, pulse_schedule, readout, x, hold_after=hold_after, noise=noise,
                        gen=None if rng is None else rng.generator())
    return read_latch(circuit, holds, readout, pulsed=bool(pulse_schedule))


def latch_holds(circuit: CircuitGraph, pulse_schedule, readout: LogicalReadout, x0,
                hold_after=None, noise=0.0, gen=None):
    """Integrate one latch state (n,) or a batch (rows, n) through the pulse
    schedule of run_flipflop, all rows in one integration, with `noise` and
    `gen` as integrate_circuit takes them. Returns (t, states) at the end of
    every hold that reads a bit: each hold after the first pulse, or the one
    hold of a schedule without pulses."""
    pulses = sorted(pulse_schedule, key=lambda q: q[1])
    for a in pulses:
        for b in pulses:
            if a is not b and a[0] != b[0] and max(a[1], b[1]) < min(a[2], b[2]):
                raise AmbiguousStateError("set and reset pulses overlap (symmetric race)")
    events = []
    t_cursor = 0.0
    for port, t_on, t_off in pulses:
        if t_on < t_cursor:
            raise ValueError("pulses must be separated by at least the settle gap")
        events.append((t_cursor, t_on, {}))
        events.append((t_on, t_off, {port: PULSE_AMPLITUDE}))
        t_cursor = t_off
    tail = hold_after if hold_after is not None else readout.t_max
    events.append((t_cursor, t_cursor + tail, {}))

    x = x0
    holds = []
    pulsed = False
    for t0, t1, inputs in events:
        if t1 <= t0:
            continue
        x = integrate_circuit(circuit, {"set": 0.0, "reset": 0.0, **inputs}, x, t1 - t0,
                              dt=readout.dt, noise=noise, gen=gen)[-1]
        if inputs:
            pulsed = True
        elif pulsed or not pulses:
            holds.append((t1, x))  # holds before the first pulse carry no bit
    return holds


def read_latch(circuit: CircuitGraph, holds, readout: LogicalReadout, pulsed):
    """The stored bit of one latch at the end of each hold, (t, state) as
    latch_holds gives them, and the ledger of its jumps. An ambiguous state
    raises AmbiguousStateError, unless the schedule was `pulsed` and no bit
    has been read yet (the pulse may still be switching the latch)."""
    space = flipflop_space()
    ledger = IrreversibilityLedger()
    readings = []
    for t, x in holds:
        try:
            bit = read_stored_bit(circuit, x, readout)
        except AmbiguousStateError:
            if pulsed and not readings:
                continue
            raise
        if readings and bit != readings[-1][1]:
            ledger.append(t, "jump", space.alpha * np.log(2.0), (readings[-1][1],), (bit,))
        readings.append((t, bit))
    return readings, ledger
