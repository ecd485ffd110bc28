"""Basin encodings and their irreversibility accounting.

Logical values live in disjoint metastable basins; a separatrix band around
each basin boundary is treated as undecided. Label changes along a
trajectory (jumps) and basin collapses (merges) are logged to a time-ordered
ledger whose entries carry the entropy exported by each event. The module
also contains the controlled double-well Langevin simulations used for the
bit-flip and erasure protocols, with full work/heat/entropy bookkeeping.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import BoundaryStateError, IntegrationDivergedError, InvalidConfigError
from .numerics import SeededRng, Trajectory

#: sentinel returned by classifiers for separatrix-band states
BOUNDARY = "__boundary__"


def merge_entropy(probs, alpha=1.0) -> float:
    """Minimal entropy export for merging encodings with priors `probs`:
    -alpha * sum p ln p, with 0 ln 0 := 0."""
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be a probability distribution")
    nz = p[p > 0]
    return float(-alpha * np.sum(nz * np.log(nz)))


@dataclass(frozen=True)
class LedgerEntry:
    time: float
    kind: str  # merge | jump | export
    entropy_nats: float
    labels_before: tuple
    labels_after: tuple


class IrreversibilityLedger:
    """Time-ordered record of merges, jumps, and entropy exports."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []

    def append(self, time, kind, entropy_nats, labels_before=(), labels_after=()):
        if kind not in ("merge", "jump", "export"):
            raise ValueError(f"unknown ledger entry kind {kind!r}")
        if entropy_nats < 0:
            raise ValueError("entropy_nats must be nonnegative")
        if self.entries and time < self.entries[-1].time:
            raise ValueError("ledger times must be nondecreasing")
        self.entries.append(LedgerEntry(float(time), kind, float(entropy_nats),
                                        tuple(labels_before), tuple(labels_after)))

    def cumulative_entropy(self) -> float:
        return float(sum(e.entropy_nats for e in self.entries))

    def merges_in(self, t0, t1):
        return [e for e in self.entries if e.kind == "merge" and t0 <= e.time <= t1]

    def __len__(self):
        return len(self.entries)


@dataclass
class EncodingSpace:
    """Finite label set with a deterministic basin classifier.

    `classify(p, c)` maps (physical state, control) to a label or BOUNDARY.
    """

    labels: tuple
    classify: Callable
    alpha: float = 1.0
    priors: Optional[np.ndarray] = None

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if self.priors is None:
            self.priors = np.full(len(self.labels), 1.0 / len(self.labels))
        self.priors = np.asarray(self.priors, dtype=float)
        if np.any(self.priors < 0) or abs(self.priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be nonnegative and sum to 1")
        if len(self.priors) != len(self.labels):
            raise ValueError("priors length must match labels")


def classify_basin(space: EncodingSpace, p, c=0.0):
    """Label whose basin contains p under control c; separatrix-band states
    raise BoundaryStateError so callers choose hold-previous vs reject."""
    lab = space.classify(p, c)
    if lab == BOUNDARY:
        raise BoundaryStateError(f"state {p} lies in the declared boundary band")
    if lab not in space.labels:
        raise ValueError(f"classifier returned unknown label {lab!r}")
    return lab


def make_double_well_space(a=1.0, b=2.0, alpha=1.0, priors=(0.5, 0.5), band_frac=0.05):
    """Two-label sign readout for the quartic double well a p^4 - b p^2.

    The boundary band is band_frac * (well separation) around p = 0.
    """
    sep = 2.0 * np.sqrt(b / (2.0 * a))
    band = band_frac * sep

    def classify(p, c=0.0):
        if p < -band:
            return 0
        if p > band:
            return 1
        return BOUNDARY

    return EncodingSpace(labels=(0, 1), classify=classify, alpha=alpha, priors=np.asarray(priors))


def encoding_path_length(traj: Trajectory, space: EncodingSpace, controls=None,
                         ledger: Optional[IrreversibilityLedger] = None):
    """Count label changes along a trajectory (scalar state = first coordinate).

    Boundary-band samples hold the previous label (hysteresis), so dwelling
    near a separatrix does not inflate the count. Each change is appended to
    the ledger as a jump carrying the minimal binary-distinction cost
    alpha * ln 2.
    """
    if len(traj.times) == 0:
        raise ValueError("trajectory must be nonempty")
    if ledger is None:
        ledger = IrreversibilityLedger()
    if controls is None:
        controls = np.zeros(len(traj.times))
    controls = np.broadcast_to(np.asarray(controls, dtype=float), (len(traj.times),))
    current = None
    count = 0
    for t, x, c in zip(traj.times, traj.states, controls):
        lab = space.classify(float(x[0]), float(c))
        if lab == BOUNDARY:
            continue
        if current is None:
            current = lab
        elif lab != current:
            ledger.append(t, "jump", space.alpha * np.log(2.0), (current,), (lab,))
            current = lab
            count += 1
    return count, ledger


def preserved_information(ledger: IrreversibilityLedger, space: EncodingSpace, horizon):
    """Shannon entropy (nats, under the priors) of the labels whose basins
    were not merged inside the horizon [t0, t1]."""
    t0, t1 = horizon
    merged = set()
    for e in ledger.merges_in(t0, t1):
        merged.update(e.labels_before)
    surviving = [i for i, lab in enumerate(space.labels) if lab not in merged]
    if not surviving:
        return 0.0
    p = space.priors[surviving]
    total = p.sum()
    if total <= 0:
        return 0.0
    p = p / total
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


# ---------------------------------------------------------------------------
# controlled double-well protocols
# ---------------------------------------------------------------------------

@dataclass
class DoubleWellParams:
    a: float = 1.0
    b: float = 2.0
    c: float = 1.0
    C_max: float = 2.0
    gamma: float = 1.0
    D: float = 0.25  # diffusion constant; k_B T_env = gamma * D with k_B = 1
    alpha: float = 1.0
    dt: float = 0.002
    burn_in: float = 2.0
    snapshots: int = 200
    hist_bins: int = 128

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.gamma) <= 0 or self.D < 0:
            raise InvalidConfigError("a, b, c, gamma must be > 0 and D >= 0")
        if not self.dt > 0 or self.snapshots < 1 or self.hist_bins < 1:
            raise InvalidConfigError("dt must be > 0 and snapshots, hist_bins >= 1")

    @property
    def kT(self):
        return self.gamma * self.D

    def potential(self, p, C):
        return self.a * p**4 - self.b * p**2 - self.c * C * p

    def well_positions(self, C):
        """Real critical points of U(., C), sorted ascending."""
        roots = np.roots([4.0 * self.a, 0.0, -2.0 * self.b, -self.c * C])
        real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
        return real

    def spinodal_tilt(self):
        """|C| beyond which the disfavored well ceases to exist."""
        p_star = np.sqrt(self.b / (6.0 * self.a))
        return abs(4.0 * self.a * p_star**3 - 2.0 * self.b * p_star) / self.c

    def free_energy(self, C, grid_half_width=4.0, grid_points=8001):
        """-kT ln Z(C) by trapezoid quadrature (no closed form for the quartic)."""
        if self.kT == 0:
            raise ValueError("free energy undefined at zero temperature")
        scale = max(1.0, np.sqrt(self.b / (2.0 * self.a)) + abs(self.c * C) / self.b)
        p = np.linspace(-grid_half_width * scale, grid_half_width * scale, grid_points)
        u = self.potential(p, C)
        u0 = u.min()
        z = np.trapezoid(np.exp(-(u - u0) / self.kT), p)
        return float(u0 - self.kT * np.log(z))


@dataclass
class BitFlipReport:
    """Ensemble summary of one controlled double-well protocol."""

    success_prob: float
    work_total: float
    work_std: float
    heat_env: float
    heat_std: float
    dU_sys: float
    dS_sys: float
    dissipated_work: float
    delta_F: float
    trials: int
    T_protocol: float
    dt: float
    kT: float
    alpha: float
    occupancy: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    per_trial: dict = field(default_factory=dict)
    ledger: IrreversibilityLedger = field(default_factory=IrreversibilityLedger)

    def first_law_residual(self):
        return self.work_total - self.dU_sys - self.heat_env

    def to_json_dict(self):
        occ = {k: np.asarray(v).tolist() for k, v in self.occupancy.items()}
        ser = {k: np.asarray(v).tolist() for k, v in self.series.items()}
        return {
            "success_prob": self.success_prob,
            "work_total": self.work_total,
            "work_std": self.work_std,
            "heat_env": self.heat_env,
            "heat_std": self.heat_std,
            "dU_sys": self.dU_sys,
            "dS_sys": self.dS_sys,
            "dissipated_work": self.dissipated_work,
            "delta_F": self.delta_F,
            "trials": self.trials,
            "T_protocol": self.T_protocol,
            "dt": self.dt,
            "kT": self.kT,
            "alpha": self.alpha,
            "first_law_residual": self.first_law_residual(),
            "ledger_entropy": self.ledger.cumulative_entropy(),
            "occupancy": occ,
            "series": ser,
        }


def _hist_entropy(samples, bins, lo, hi):
    """Differential entropy (nats) from a fixed-range histogram."""
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    n = counts.sum()
    if n == 0:
        return 0.0
    width = edges[1] - edges[0]
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log(p)) + np.log(width))


def _advance(params: DoubleWellParams, p, work, sched, noise, inv_gamma, step, phase):
    """One kernel chunk ending at `step` of `phase`. A non-finite state raises
    IntegrationDivergedError; the overflow warnings on the way there are
    silenced because that error reports the divergence."""
    with np.errstate(over="ignore", invalid="ignore"):
        p, work = kernels.doublewell_chunk(p, work, sched, noise, params.a, params.b,
                                           params.c, inv_gamma, params.dt)
    if not np.isfinite(p).all():
        raise IntegrationDivergedError(step, f"non-finite double-well state by {phase} step {step}")
    return p, work


def _run_protocol(params: DoubleWellParams, schedule, T_protocol, trials, rng: SeededRng,
                  init_labels, space: EncodingSpace):
    """Shared driver: burn-in, chunked Langevin march, snapshot bookkeeping."""
    if trials == 0:
        raise InvalidConfigError("trials must be >= 1")
    dt = params.dt
    steps = len(schedule) - 1
    gen = rng.generator()
    sigma = np.sqrt(2.0 * params.D * dt)
    inv_gamma = 1.0 / params.gamma

    wells = params.well_positions(schedule[0])
    p = np.empty(trials)
    n0 = int(np.sum(np.asarray(init_labels) == 0))
    p[:n0] = wells[0]
    p[n0:] = wells[-1]

    burn_steps = int(round(params.burn_in / dt))
    if burn_steps > 0:
        const_sched = np.full(burn_steps + 1, schedule[0])
        noise = sigma * gen.standard_normal((burn_steps, trials))
        work0 = np.zeros(trials)
        p, _ = _advance(params, p, work0, const_sched, noise, inv_gamma,
                        burn_steps, "burn-in")

    work = np.zeros(trials)
    p0 = p.copy()
    sample_every = max(1, steps // params.snapshots)
    snap_steps = [0]
    snaps = [p.copy()]
    work_snaps = [0.0]
    s = 0
    while s < steps:
        m = min(sample_every, steps - s)
        noise = sigma * gen.standard_normal((m, trials))
        p, work = _advance(params, p, work, schedule[s : s + m + 1], noise, inv_gamma,
                           s + m, "protocol")
        s += m
        snap_steps.append(s)
        snaps.append(p.copy())
        work_snaps.append(float(work.mean()))

    snaps = np.asarray(snaps)
    snap_steps = np.asarray(snap_steps)
    times = snap_steps * dt
    all_vals = snaps.ravel()
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi <= lo:
        hi = lo + 1e-12
    s_sys = np.array([_hist_entropy(row, params.hist_bins, lo, hi) for row in snaps])
    u_mean = np.array([params.potential(row, schedule[k]).mean() for row, k in zip(snaps, snap_steps)])
    frac1 = np.array([(row > 0).mean() for row in snaps])
    frac0 = 1.0 - frac1
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(frac0 > 0, -frac0 * np.log(frac0), 0.0) + np.where(frac1 > 0, -frac1 * np.log(frac1), 0.0)
    label_entropy = terms

    dU_trial = params.potential(p, schedule[-1]) - params.potential(p0, schedule[0])
    heat_trial = work - dU_trial
    labels_T = np.array([space.classify(v, schedule[-1]) == 1 for v in p])

    # the label-0 basin ceases to exist once the tilt passes the spinodal
    # point; that instant is the (single) merge event of these protocols
    ledger = IrreversibilityLedger()
    crit = params.spinodal_tilt()
    cross = schedule >= crit
    if (not cross[0]) and cross.any():
        k = int(np.argmax(cross))
        pri = np.array([np.mean(np.asarray(init_labels) == 0), np.mean(np.asarray(init_labels) == 1)])
        ledger.append(k * dt, "merge", merge_entropy(pri, params.alpha), (0, 1), (1,))

    report = BitFlipReport(
        success_prob=float(labels_T.mean()),
        work_total=float(work.mean()),
        work_std=float(work.std(ddof=1) / np.sqrt(trials)),
        heat_env=float(heat_trial.mean()),
        heat_std=float(heat_trial.std(ddof=1) / np.sqrt(trials)),
        dU_sys=float(dU_trial.mean()),
        dS_sys=float(params.alpha * (s_sys[-1] - s_sys[0])),
        dissipated_work=0.0,
        delta_F=0.0,
        trials=trials,
        T_protocol=T_protocol,
        dt=dt,
        kT=params.kT,
        alpha=params.alpha,
        occupancy={"times": times, "frac0": frac0, "frac1": frac1},
        series={
            "times": times,
            "work_cum": np.asarray(work_snaps),
            "u_mean": u_mean,
            "s_sys": s_sys,
            "label_entropy": label_entropy,
        },
        per_trial={
            "work": work,
            "heat": heat_trial,
            "final_state": p.copy(),
            "final_label": labels_T.astype(int),
        },
        ledger=ledger,
    )
    dF = params.free_energy(schedule[-1]) - params.free_energy(schedule[0])
    report.delta_F = float(dF)
    report.dissipated_work = float(report.work_total - dF)
    return report


def bitflip_schedule(params: DoubleWellParams, T_protocol):
    """Sinusoidal tilt -C_max -> +C_max over [0, T] (positive tilt favors
    the positive well, label 1)."""
    steps = max(1, int(round(T_protocol / params.dt)))
    t = np.arange(steps + 1) * params.dt
    return params.C_max * np.sin(np.pi * t / T_protocol - np.pi / 2.0)


def erasure_schedule(params: DoubleWellParams, T_protocol):
    """Quarter-sine ramp 0 -> +C_max merging both basins into label 1."""
    steps = max(1, int(round(T_protocol / params.dt)))
    t = np.arange(steps + 1) * params.dt
    return params.C_max * np.sin(np.pi * t / (2.0 * T_protocol))


def simulate_bitflip(params: DoubleWellParams, T_protocol, trials, rng: SeededRng) -> BitFlipReport:
    """Drive label 0 -> 1 with the sinusoidal tilt schedule; the ensemble
    starts equilibrated in basin 0."""
    space = make_double_well_space(params.a, params.b, params.alpha, priors=(1.0, 0.0))
    sched = bitflip_schedule(params, T_protocol)
    return _run_protocol(params, sched, T_protocol, trials, rng,
                         init_labels=np.zeros(trials, dtype=int), space=space)


def simulate_erasure(params: DoubleWellParams, T_protocol, trials, rng: SeededRng) -> BitFlipReport:
    """Merge an equiprobable two-basin ensemble into basin 1; reports carry the
    heat needed to compare against the minimal alpha*kT*(ln 2 - residual)."""
    space = make_double_well_space(params.a, params.b, params.alpha, priors=(0.5, 0.5))
    sched = erasure_schedule(params, T_protocol)
    init = np.zeros(trials, dtype=int)
    init[trials // 2 :] = 1
    return _run_protocol(params, sched, T_protocol, trials, rng, init_labels=init, space=space)


def landauer_bound(report: BitFlipReport) -> float:
    """Minimal heat for the run: kT * (initial label entropy - residual)."""
    h0 = report.series["label_entropy"][0]
    h1 = report.series["label_entropy"][-1]
    return float(report.kT * max(h0 - h1, 0.0))
