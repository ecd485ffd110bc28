"""Reversible-dissipative systems: x' = J grad_h - lam R grad_xi + B u + noise.

J is antisymmetric (structure-preserving rotation generated by a conserved
quadratic), R symmetric positive-semidefinite (relaxation through a
dissipation potential). v1 keeps J and R constant matrices and the scalar
potentials quadratic; the per-step entropy export and its information-rate
counterpart are accounted in FluxRecord entries.

A step of size dt with quadratic H (h_matrix A given) is split in the order
of the rotor reservoir kernel (kernels.rotor_chunk): an Euler substep of the
dissipative and input terms from the pre-step state, then the exact
reversible propagator, then the noise increment,

    x' = exp(J A dt) (x + dt (-lam R grad_xi(x) + B u)) + noise sqrt(dt) xi,

then an optional renormalization to unit norm. exp1's reservoir is this law
with J = block_rotation(omegas), R = I and B = bvec. Without h_matrix the
whole drift is one Euler-Maruyama step. Noise is drawn from the caller's
generator: `gen` in step(), `rng` in simulate().
"""

from dataclasses import dataclass
from typing import Callable, Optional

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


@dataclass
class MetriplecticSystem:
    dim: int
    J: np.ndarray
    R: np.ndarray
    grad_h: Callable[[np.ndarray], np.ndarray]
    grad_xi: Callable[[np.ndarray], np.ndarray]
    lam: float = 0.0
    B: Optional[np.ndarray] = None
    noise: float = 0.0
    alpha: float = 1.0
    h_matrix: Optional[np.ndarray] = None  # A with H = x^T A x / 2; enables the
                                           # exact reversible propagator in step()
    name: str = ""

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.J.shape != (self.dim, self.dim) or self.R.shape != (self.dim, self.dim):
            raise ValueError("J and R must be dim x dim")
        if not np.array_equal(self.J, -self.J.T):
            # constructed antisymmetric: symmetrize exactly
            self.J = 0.5 * (self.J - self.J.T)
        if not np.allclose(self.R, self.R.T, atol=1e-12):
            raise ValueError("R must be symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (self.R + self.R.T))
        if eigs.min() < -1e-10:
            raise ValueError(f"R must be positive semidefinite (min eig {eigs.min():.3g})")
        if self.lam < 0 or self.noise < 0 or self.alpha <= 0:
            raise ValueError("lam, noise must be >= 0 and alpha > 0")
        if self.B is None:
            self.B = np.zeros(self.dim)
        self.B = np.asarray(self.B, dtype=float)
        if self.h_matrix is not None:
            self.h_matrix = np.asarray(self.h_matrix, dtype=float)
        self._propagators = {}

    def drift(self, x, u=0.0):
        return self.J @ self.grad_h(x) - self.lam * (self.R @ self.grad_xi(x)) + self.B * u

    def reversible_propagator(self, dt):
        """exp(J A dt) for quadratic H; None when H was supplied as a bare callable."""
        if self.h_matrix is None:
            return None
        key = float(dt)
        if key not in self._propagators:
            self._propagators[key] = _expm(self.J @ self.h_matrix * dt)
        return self._propagators[key]


def _expm(M, order=13):
    """Dense matrix exponential by scaling-and-squaring with a Taylor kernel."""
    M = np.asarray(M, dtype=float)
    nrm = np.linalg.norm(M, np.inf)
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-300) / 0.25))))
    A = M / (2**s)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, order + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def quadratic_gradient(A):
    """Gradient of the quadratic form 0.5 x^T A x, i.e. x -> A x."""
    A = np.asarray(A, dtype=float)
    return lambda x: A @ x


def block_rotation(omegas, dim):
    """Antisymmetric block-diagonal generator: one 2x2 rotation per frequency.

    Blocks occupy the leading 2*len(omegas) coordinates; trailing coordinates
    are untouched by the reversible flow.
    """
    omegas = np.asarray(omegas, dtype=float)
    if 2 * len(omegas) > dim:
        raise ValueError("too many rotation blocks for dimension")
    J = np.zeros((dim, dim))
    for k, w in enumerate(omegas):
        J[2 * k, 2 * k + 1] = -w
        J[2 * k + 1, 2 * k] = w
    return J


@dataclass
class DegeneracyReport:
    max_j_residual: float
    max_r_residual: float
    samples: int
    tol: float
    passed: bool


def check_degeneracy(sys: MetriplecticSystem, samples: int, tol: float, rng: SeededRng) -> DegeneracyReport:
    """Audit ||J grad_xi(x)|| and ||R grad_h(x)|| at random unit-sphere points."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gen = rng.generator()
    max_j = 0.0
    max_r = 0.0
    for _ in range(samples):
        x = gen.standard_normal(sys.dim)
        x /= np.linalg.norm(x)
        max_j = max(max_j, float(np.linalg.norm(sys.J @ sys.grad_xi(x))))
        max_r = max(max_r, float(np.linalg.norm(sys.R @ sys.grad_h(x))))
    return DegeneracyReport(max_j, max_r, samples, tol, max_j < tol and max_r < tol)


def entropy_production_rate(sys: MetriplecticSystem, x) -> float:
    """Instantaneous entropy export: <grad_xi, lam R grad_xi> >= 0."""
    x = np.asarray(x, dtype=float)
    g = sys.grad_xi(x)
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
    prop = sys.reversible_propagator(dt)
    if prop is not None:
        xn = prop @ (x + dt * (-sys.lam * (sys.R @ sys.grad_xi(x)) + sys.B * u))
    else:
        xn = x + dt * sys.drift(x, u)
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
    J = np.array([[0.0, -omega], [omega, 0.0]])
    return MetriplecticSystem(
        dim=2, J=J, R=np.zeros((2, 2)),
        grad_h=quadratic_gradient(np.eye(2)),
        grad_xi=lambda x: np.zeros(2),
        h_matrix=np.eye(2),
        name="harmonic",
    )


def block_disjoint_preset(n_rev=2, n_diss=2, omega=1.0, lam=1.0):
    """Rotation on block A, relaxation on disjoint block B; degeneracy holds
    identically because each operator annihilates the other potential's
    gradient."""
    dim = n_rev + n_diss
    J = np.zeros((dim, dim))
    for k in range(n_rev // 2):
        J[2 * k, 2 * k + 1] = -omega
        J[2 * k + 1, 2 * k] = omega
    R = np.zeros((dim, dim))
    R[n_rev:, n_rev:] = np.eye(n_diss)
    PA = np.zeros((dim, dim))
    PA[:n_rev, :n_rev] = np.eye(n_rev)
    PB = np.zeros((dim, dim))
    PB[n_rev:, n_rev:] = np.eye(n_diss)
    return MetriplecticSystem(
        dim=dim, J=J, R=R,
        grad_h=quadratic_gradient(PA),
        grad_xi=quadratic_gradient(PB),
        lam=lam,
        h_matrix=PA,
        name="block-disjoint",
    )


def isotropic_decay_preset(dim=2, lam=1.0, omega=0.0, noise=0.0):
    """Isotropic relaxation (R = I, radial dissipation potential), optional
    rotation on the leading pair. Entropy rate is lam * ||x||^2, so a
    unit-renormalized state exports exactly lam per unit time."""
    J = np.zeros((dim, dim))
    if omega != 0.0:
        J[0, 1] = -omega
        J[1, 0] = omega
    return MetriplecticSystem(
        dim=dim, J=J, R=np.eye(dim),
        grad_h=quadratic_gradient(np.eye(dim)),
        grad_xi=quadratic_gradient(np.eye(dim)),
        lam=lam, noise=noise,
        h_matrix=np.eye(dim),
        name="isotropic-decay",
    )


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
