"""Reversible-dissipative systems: x' = J A x - lam R Q x + B u + noise.

A system is its four matrices. J is antisymmetric (the reversible generator),
R symmetric positive-semidefinite (the dissipative operator), and A and Q
declare the two quadratic potentials H = x^T A x / 2, which the reversible
flow conserves, and Xi = x^T Q x / 2, which the dissipation relaxes; their
gradients are A x and Q x. The per-step entropy export and its
information-rate counterpart are accounted in FluxRecord entries.

A step of size dt is split in the order of the rotor reservoir kernel
(kernels.rotor_chunk): an Euler substep of the dissipative and input terms
from the pre-step state, then the exact reversible propagator, then the noise
increment,

    x' = exp(J A dt) (x + dt (-lam R Q x + B u)) + noise sqrt(dt) xi,

then an optional renormalization to unit norm. exp1's reservoir is this law
with J = block_rotation(omegas, dim), R = A = Q = I and B = bvec. Noise is
drawn from the caller's generator: `gen` in step(), `rng` in simulate().
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IntegrationDivergedError
from .numerics import SeededRng, Trajectory


@dataclass
class FluxRecord:
    """Per-step flux accounting, evaluated at the pre-step state."""

    time: float
    entropy_production_rate: float
    irr_info_rate: float

    def __post_init__(self):
        if self.entropy_production_rate < 0:
            raise ValueError("entropy production rate must be nonnegative")


@dataclass(frozen=True, eq=False)
class MetriplecticSystem:
    """H = x^T A x / 2 and Xi = x^T Q x / 2; J, R, A and Q are dim x dim.

    Frozen: the fields cannot be reassigned and the arrays are read-only
    copies, so the per-dt propagator cache always matches J and A. Build a
    changed system with dataclasses.replace.
    """

    J: np.ndarray
    R: np.ndarray
    A: np.ndarray
    Q: np.ndarray
    lam: float = 0.0
    B: Optional[np.ndarray] = None
    noise: float = 0.0
    alpha: float = 1.0
    name: str = ""

    def __post_init__(self):
        J, R, A, Q = (np.asarray(M, dtype=float) for M in (self.J, self.R, self.A, self.Q))
        shape = J.shape
        if len(shape) != 2 or shape[0] != shape[1] or any(
                M.shape != shape for M in (R, A, Q)):
            raise ValueError("J, R, A and Q must be square matrices of one size")
        if not np.array_equal(J, -J.T):
            # constructed antisymmetric: symmetrize exactly
            J = 0.5 * (J - J.T)
        if not np.allclose(R, R.T, atol=1e-12):
            raise ValueError("R must be symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (R + R.T))
        if eigs.min() < -1e-10:
            raise ValueError(f"R must be positive semidefinite (min eig {eigs.min():.3g})")
        if self.lam < 0 or self.noise < 0 or self.alpha <= 0:
            raise ValueError("lam, noise must be >= 0 and alpha > 0")
        B = np.zeros(shape[0]) if self.B is None else self.B
        for name, M in (("J", J), ("R", R), ("A", A), ("Q", Q), ("B", B)):
            M = np.array(M, dtype=float)
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        object.__setattr__(self, "_propagators", {})

    @property
    def dim(self):
        return self.J.shape[0]

    def reversible_propagator(self, dt):
        """exp(J A dt), computed once per step size."""
        key = float(dt)
        if key not in self._propagators:
            self._propagators[key] = _expm(self.J @ self.A * dt)
        return self._propagators[key]


_EXPM_ORDER = 13  # Taylor terms after scaling the norm below 1/4


def _expm(M):
    """Dense matrix exponential by scaling-and-squaring with a Taylor kernel."""
    M = np.asarray(M, dtype=float)
    nrm = np.linalg.norm(M, np.inf)
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-300) / 0.25))))
    A = M / (2**s)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, _EXPM_ORDER + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def block_rotation(omegas, dim):
    """Antisymmetric block-diagonal generator: one 2x2 rotation per frequency.

    Blocks occupy the leading 2*len(omegas) coordinates; trailing coordinates
    are untouched by the reversible flow. Every rotation block in the package
    is built here, so the sign convention below is fixed in one place.
    """
    omegas = np.asarray(omegas, dtype=float)
    if 2 * len(omegas) > dim:
        raise ValueError("too many rotation blocks for dimension")
    J = np.zeros((dim, dim))
    for k, w in enumerate(omegas):
        J[2 * k, 2 * k + 1] = -w
        J[2 * k + 1, 2 * k] = w
    return J


def entropy_production_rate(sys: MetriplecticSystem, x) -> float:
    """Instantaneous entropy export: <Q x, lam R Q x> >= 0."""
    g = sys.Q @ np.asarray(x, dtype=float)
    val = float(sys.lam * (g @ (sys.R @ g)))
    return max(val, 0.0)


def step(sys: MetriplecticSystem, x, u, dt, renormalize=False, t=0.0,
         gen: Optional[np.random.Generator] = None):
    """One stochastic step (split as in the module docstring); returns
    (new state, FluxRecord at pre-step state). A noisy system needs `gen`,
    the generator its increments are drawn from."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sys.noise > 0 and gen is None:
        raise ValueError("a system with noise > 0 needs a generator: gen for step, rng for simulate")
    x = np.asarray(x, dtype=float)
    rate = entropy_production_rate(sys, x)
    flux = FluxRecord(time=t, entropy_production_rate=rate, irr_info_rate=rate / sys.alpha)
    xn = sys.reversible_propagator(dt) @ (x + dt * (-sys.lam * (sys.R @ (sys.Q @ x)) + sys.B * u))
    if sys.noise > 0:
        xn = xn + sys.noise * np.sqrt(dt) * gen.standard_normal(sys.dim)
    if not np.all(np.isfinite(xn)):
        raise IntegrationDivergedError(0)
    if renormalize:
        xn = xn / np.linalg.norm(xn)
    return xn, flux


def simulate(sys: MetriplecticSystem, x0, inputs, dt, rng: Optional[SeededRng] = None, renormalize=False):
    """Drive the system over len(inputs) steps; returns (Trajectory, flux list).
    A noisy system needs `rng`: one generator from it feeds every step.

    A non-finite state raises IntegrationDivergedError carrying the index of
    the step that produced it; the overflow warnings on the way there are
    silenced because that error reports the divergence."""
    x = np.asarray(x0, dtype=float)
    gen = rng.generator() if rng is not None else None
    states = np.empty((len(inputs) + 1, sys.dim))
    states[0] = x
    fluxes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, u in enumerate(inputs):
            try:
                x, fl = step(sys, x, u, dt, renormalize=renormalize, t=i * dt, gen=gen)
            except IntegrationDivergedError:
                raise IntegrationDivergedError(i) from None
            states[i + 1] = x
            fluxes.append(fl)
    return Trajectory(dt * np.arange(len(inputs) + 1), states), fluxes


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def harmonic_preset(omega=1.0):
    """Pure reversible planar rotation; zero dissipative sector."""
    zero = np.zeros((2, 2))
    return MetriplecticSystem(J=block_rotation([omega], 2), R=zero, A=np.eye(2), Q=zero,
                              name="harmonic")


def block_disjoint_preset(n_rev=2, n_diss=2, omega=1.0, lam=1.0):
    """Rotation on the leading n_rev coordinates, relaxation on the disjoint
    trailing n_diss; degeneracy holds identically because each operator
    annihilates the other potential's gradient."""
    dim = n_rev + n_diss
    PA = np.diag((np.arange(dim) < n_rev).astype(float))
    PB = np.eye(dim) - PA
    return MetriplecticSystem(J=block_rotation([omega] * (n_rev // 2), dim), R=PB, A=PA, Q=PB,
                              lam=lam, name="block-disjoint")


def isotropic_decay_preset(dim=2, lam=1.0, noise=0.0):
    """Isotropic relaxation (R = A = Q = I) with no rotation. Entropy rate is
    lam * ||x||^2, so a unit-renormalized state exports exactly lam per unit
    time."""
    eye = np.eye(dim)
    return MetriplecticSystem(J=block_rotation((), dim), R=eye, A=eye, Q=eye, lam=lam,
                              noise=noise, name="isotropic-decay")


PRESETS = {
    "harmonic": harmonic_preset,
    "block-disjoint": block_disjoint_preset,
    "isotropic-decay": isotropic_decay_preset,
}


def make_preset(name, **kwargs) -> MetriplecticSystem:
    """Instantiate a named preset system (see PRESETS for the catalogue)."""
    if name not in PRESETS:
        raise ValueError(f"unknown system preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)
