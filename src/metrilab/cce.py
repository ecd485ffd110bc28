"""Basin encodings and their irreversibility accounting.

Logical values live in disjoint metastable basins; a separatrix band around
each basin boundary is treated as undecided. Label changes along a
trajectory (jumps) and basin collapses (merges) are logged to a time-ordered
ledger whose entries carry the entropy exported by each event. The module
also contains the controlled double-well Langevin simulations used for the
bit-flip and erasure protocols, with full work/heat/entropy bookkeeping.
"""

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import kernels
from .errors import IntegrationDivergedError, InvalidConfigError, check_fields
from .numerics import BLOCK_ELEMENTS, SeededRng, Trajectory

#: label index of separatrix-band states
BOUNDARY = -1
BAND_FRAC = 0.05              # double-well boundary band, fraction of the well separation
FREE_ENERGY_HALF_WIDTH = 4.0  # free-energy grid half-width, in units of the well scale
FREE_ENERGY_GRID_POINTS = 8001


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
    """Two labels on either side of a separatrix band [lo, hi] of one scalar
    coordinate. Label changes cost alpha * ln 2 each."""

    labels: tuple
    lo: float
    hi: float
    alpha: float = 1.0
    priors: Optional[np.ndarray] = None

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if len(self.labels) != 2:
            raise ValueError(f"an encoding space has two labels, got {self.labels!r}")
        if not self.lo <= self.hi:
            raise ValueError(f"band needs lo <= hi, got [{self.lo}, {self.hi}]")
        if self.priors is None:
            self.priors = np.full(2, 0.5)
        self.priors = np.asarray(self.priors, dtype=float)
        if np.any(self.priors < 0) or abs(self.priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be nonnegative and sum to 1")
        if len(self.priors) != 2:
            raise ValueError("priors length must match labels")

    def classify(self, v):
        """Label index per coordinate: 0 below lo, 1 above hi, BOUNDARY in
        the band and for NaN."""
        v = np.asarray(v, dtype=float)
        return np.where(v < self.lo, 0, np.where(v > self.hi, 1, BOUNDARY))


def make_double_well_space(a=1.0, b=2.0, alpha=1.0):
    """Two-label sign readout for the quartic double well a p^4 - b p^2,
    with equal priors."""
    band = BAND_FRAC * (2.0 * np.sqrt(b / (2.0 * a)))
    return EncodingSpace((0, 1), -band, band, alpha=alpha)


def label_jumps(idx, start=BOUNDARY):
    """Hold-previous readout of label indices along axis 0, any trailing shape.

    A BOUNDARY sample keeps the label before it (`start` before the first
    sample); a change between two labels is a jump. Returns (held, jump_mask),
    both shaped like idx."""
    idx = np.asarray(idx)
    col = np.concatenate([np.broadcast_to(start, (1,) + idx.shape[1:]), idx])
    at = np.arange(len(col)).reshape((-1,) + (1,) * (idx.ndim - 1))
    seen = np.maximum.accumulate(np.where(col != BOUNDARY, at, 0), axis=0)
    held = np.take_along_axis(col, seen, axis=0)
    return held[1:], (held[1:] != held[:-1]) & (held[:-1] != BOUNDARY)


def encoding_path_length(traj: Trajectory, space: EncodingSpace,
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
    held, jump = label_jumps(space.classify(traj.states[:, 0]))
    for k in np.flatnonzero(jump):
        ledger.append(traj.times[k], "jump", space.alpha * np.log(2.0),
                      (space.labels[held[k - 1]],), (space.labels[held[k]],))
    return int(np.count_nonzero(jump)), ledger


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
    return merge_entropy(p / total)


# ---------------------------------------------------------------------------
# controlled double-well protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    POSITIVE = ("a", "b", "c", "gamma", "D", "alpha", "dt", "snapshots", "hist_bins")
    NONNEGATIVE = ("burn_in",)

    def __post_init__(self):
        check_fields(self)

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

    def free_energy(self, C):
        """-kT ln Z(C) by trapezoid quadrature (no closed form for the quartic)."""
        if self.kT == 0:
            raise ValueError("free energy undefined at zero temperature")
        scale = max(1.0, np.sqrt(self.b / (2.0 * self.a)) + abs(self.c * C) / self.b)
        half = FREE_ENERGY_HALF_WIDTH * scale
        p = np.linspace(-half, half, FREE_ENERGY_GRID_POINTS)
        u = self.potential(p, C)
        u0 = u.min()
        # At tiny kT, (u - u0) / kT overflows to inf and exp(-inf) = 0 is the
        # right limit; the grid's own minimum contributes exp(0) = 1, so z > 0.
        with np.errstate(over="ignore"):
            boltzmann = np.exp(-(u - u0) / self.kT)
        z = np.trapezoid(boltzmann, p)
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
        """Every field but the per-trial arrays and the ledger, plus the
        first-law residual and the ledger's entropy. The series stay numpy
        arrays; experiments.base.write_json turns them into lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("per_trial", "ledger")}
        out["first_law_residual"] = self.first_law_residual()
        out["ledger_entropy"] = self.ledger.cumulative_entropy()
        return out


def _hist_entropy(samples, bins, lo, hi):
    """Differential entropy (nats) from a fixed-range histogram."""
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    n = counts.sum()
    width = edges[1] - edges[0]
    return float(merge_entropy(counts / n) + np.log(width))


def _advance(params: DoubleWellParams, p, work, sched, gen, sigma, inv_gamma, step, phase):
    """March over `sched` (one more entry than steps) to `step` of `phase`.

    The noise is drawn and the kernel stepped a block of steps at a time; the
    generator's stream is sequential, so the draws equal one whole draw. The
    blocks are drawn into one buffer per call and scaled in place, so a long
    march does not allocate and re-fault a fresh draw per block. A non-finite
    state at the end raises IntegrationDivergedError; the overflow warnings
    on the way there are silenced because that error reports the divergence."""
    steps = len(sched) - 1
    block = max(1, BLOCK_ELEMENTS // p.size)
    buf = np.empty((min(block, steps), p.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, steps, block):
            m = min(block, steps - s)
            noise = gen.standard_normal(out=buf[:m])
            noise *= sigma
            p, work = kernels.doublewell_chunk(p, work, sched[s : s + m + 1], noise, params.a,
                                               params.b, params.c, inv_gamma, params.dt)
    if not np.isfinite(p).all():
        raise IntegrationDivergedError(step, f"non-finite double-well state by {phase} step {step}")
    return p, work


def _run_protocol(params: DoubleWellParams, schedule, T_protocol, trials, rng: SeededRng, n_high):
    """Shared driver: burn-in, chunked Langevin march, snapshot bookkeeping.
    The last `n_high` of the `trials` start in basin 1, the others in basin 0."""
    if trials < 2:
        raise InvalidConfigError(f"trials must be >= 2 for a spread, got {trials}")
    dt = params.dt
    steps = len(schedule) - 1
    gen = rng.generator()
    sigma = np.sqrt(2.0 * params.D * dt)
    inv_gamma = 1.0 / params.gamma

    wells = params.well_positions(schedule[0])
    p = np.full(trials, wells[-1])
    p[: trials - n_high] = wells[0]

    burn_steps = int(round(params.burn_in / dt))
    if burn_steps > 0:
        p, _ = _advance(params, p, np.zeros(trials), np.full(burn_steps + 1, schedule[0]),
                        gen, sigma, inv_gamma, burn_steps, "burn-in")

    work = np.zeros(trials)
    snap_steps = np.append(np.arange(0, steps, max(1, steps // params.snapshots)), steps)
    snaps = np.empty((len(snap_steps), trials))
    snaps[0] = p
    work_cum = np.zeros(len(snap_steps))
    for k, s in enumerate(snap_steps[1:].tolist(), 1):
        p, work = _advance(params, p, work, schedule[snap_steps[k - 1] : s + 1], gen, sigma,
                           inv_gamma, s, "protocol")
        snaps[k] = p
        work_cum[k] = work.mean()

    times = snap_steps * dt
    lo, hi = float(snaps.min()), float(snaps.max())
    if hi <= lo:
        hi = lo + 1e-12
    try:  # numpy's own test that the bins fit the range; it widens an empty range first
        np.histogram_bin_edges(snaps[0], params.hist_bins, range=(lo, hi))
    except ValueError:
        raise InvalidConfigError(f"hist_bins = {params.hist_bins} finite bins do not fit the "
                                 f"snapshot range [{lo!r}, {hi!r}]") from None
    s_sys = np.array([_hist_entropy(row, params.hist_bins, lo, hi) for row in snaps])
    frac1 = np.array([(row > 0).mean() for row in snaps])
    frac0 = 1.0 - frac1
    # An empty basin takes log(0) in the label entropy. A finite state can
    # still carry a quartic energy, or an ensemble moment, that overflows;
    # such a run raises like a non-finite state, and its overflow warnings
    # are silenced because the error reports it. A non-finite trial makes
    # its ensemble mean non-finite.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        label_entropy = (np.where(frac0 > 0, -frac0 * np.log(frac0), 0.0)
                         + np.where(frac1 > 0, -frac1 * np.log(frac1), 0.0))
        u_mean = np.array([params.potential(row, schedule[k]).mean()
                           for row, k in zip(snaps, snap_steps)])
        dU_trial = params.potential(p, schedule[-1]) - params.potential(snaps[0], schedule[0])
        heat_trial = work - dU_trial
        moments = np.array([work.mean(), work.std(ddof=1), heat_trial.mean(),
                            heat_trial.std(ddof=1), dU_trial.mean()])
    if not (np.isfinite(moments).all() and np.isfinite(u_mean).all()):
        raise IntegrationDivergedError(steps, f"non-finite double-well energy by protocol step {steps}")
    work_total, work_sd, heat_env, heat_sd, dU_sys = moments.tolist()
    labels_T = make_double_well_space(params.a, params.b).classify(p) == 1

    # the label-0 basin ceases to exist once the tilt passes the spinodal
    # point; that instant is the (single) merge event of these protocols
    ledger = IrreversibilityLedger()
    cross = schedule >= params.spinodal_tilt()
    if (not cross[0]) and cross.any():
        k = int(np.argmax(cross))
        pri = np.array([trials - n_high, n_high]) / trials
        ledger.append(k * dt, "merge", merge_entropy(pri, params.alpha), (0, 1), (1,))

    delta_F = params.free_energy(schedule[-1]) - params.free_energy(schedule[0])
    return BitFlipReport(
        success_prob=float(labels_T.mean()),
        work_total=work_total,
        work_std=work_sd / float(np.sqrt(trials)),
        heat_env=heat_env,
        heat_std=heat_sd / float(np.sqrt(trials)),
        dU_sys=dU_sys,
        dS_sys=float(params.alpha * (s_sys[-1] - s_sys[0])),
        dissipated_work=work_total - delta_F,
        delta_F=delta_F,
        trials=trials,
        T_protocol=T_protocol,
        dt=dt,
        kT=params.kT,
        alpha=params.alpha,
        occupancy={"times": times, "frac0": frac0, "frac1": frac1},
        series={
            "times": times,
            "work_cum": work_cum,
            "u_mean": u_mean,
            "s_sys": s_sys,
            "label_entropy": label_entropy,
        },
        per_trial={
            "work": work,
            "heat": heat_trial,
            "final_state": p,
            "final_label": labels_T.astype(int),
        },
        ledger=ledger,
    )


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
    return _run_protocol(params, bitflip_schedule(params, T_protocol), T_protocol, trials, rng, 0)


def simulate_erasure(params: DoubleWellParams, T_protocol, trials, rng: SeededRng) -> BitFlipReport:
    """Merge an equiprobable two-basin ensemble into basin 1; reports carry the
    heat needed to compare against the minimal alpha*kT*(ln 2 - residual)."""
    return _run_protocol(params, erasure_schedule(params, T_protocol), T_protocol, trials, rng,
                         trials - trials // 2)


def landauer_bound(report: BitFlipReport) -> float:
    """Minimal heat for the run: kT * (initial label entropy - residual)."""
    h0 = report.series["label_entropy"][0]
    h1 = report.series["label_entropy"][-1]
    return float(report.kT * max(h0 - h1, 0.0))
