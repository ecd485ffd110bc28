"""Declarative run configuration: key=value text with sections, full echo.

Two equivalent spellings are accepted and may be mixed:

    [exp3]
    rho_grid = [0.1 .. 1.8 : 20]

    exp1.lambda_grid = [1e-3, 1]

Values: int, float, true/false, bare strings, `[a, b, c]` lists, and the
range form `[lo .. hi : n]` (n evenly spaced points including endpoints).
Unknown sections or keys are rejected by name; every default in force is
echoed into the resolved parameter map so manifests carry no hidden values.
"""

import dataclasses
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .cce import DoubleWellParams
from .errors import InvalidConfigError
from .experiments import Exp1Config, Exp2Config, Exp3Config, Exp4Config

_RANGE_RE = re.compile(r"^\[\s*([^\s]+)\s*\.\.\s*([^\s]+)\s*:\s*(\d+)\s*\]$")


def parse_value(text):
    s = text.strip()
    m = _RANGE_RE.match(s)
    if m:
        lo, hi, n = float(m.group(1)), float(m.group(2)), int(m.group(3))
        if n < 2:
            raise InvalidConfigError(f"range {s!r} needs at least 2 points")
        return [float(v) for v in np.linspace(lo, hi, n)]
    if s.startswith("[") and s.endswith("]"):
        inner = s[1:-1].strip()
        if not inner:
            return []
        return [parse_value(tok) for tok in inner.split(",")]
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def parse_config_text(text):
    """-> dict of section -> {key: parsed value}."""
    out = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise InvalidConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." in key:
            sec, key = key.split(".", 1)
        elif section is not None:
            sec = section
        else:
            raise InvalidConfigError(f"line {lineno}: key {key!r} outside any section "
                                     "(use [section] or section.key)")
        out.setdefault(sec, {})[key] = parse_value(value)
    return out


@dataclass
class ProtocolRunConfig:
    """Double-well protocol parameters plus run-level controls."""

    a: float = 1.0
    b: float = 2.0
    c: float = 1.0
    C_max: float = 2.0
    gamma: float = 1.0
    D: float = 0.25
    alpha: float = 1.0
    dt: float = 0.002
    burn_in: float = 2.0
    snapshots: int = 200
    hist_bins: int = 128
    T_protocol: float = 20.0
    trials: int = 1000
    durations: tuple = ()
    per_trial_csv: bool = False

    def params(self) -> DoubleWellParams:
        return DoubleWellParams(a=self.a, b=self.b, c=self.c, C_max=self.C_max,
                                gamma=self.gamma, D=self.D, alpha=self.alpha, dt=self.dt,
                                burn_in=self.burn_in, snapshots=self.snapshots,
                                hist_bins=self.hist_bins)

    def duration_sweep(self):
        return tuple(self.durations) if self.durations else (self.T_protocol,)


@dataclass
class GatesConfig:
    noise: float = 1e-3
    gain: float = 8.0
    w: float = 1.0
    theta_and: float = 1.4
    theta_or: float = 0.6
    b_not: float = 0.5
    g_ff: float = 2.0
    h_ff: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.noise) and self.noise >= 0.0):
            raise InvalidConfigError(f"gates.noise must be finite and >= 0, got {self.noise!r}")

    def gate_params(self):
        return {k: getattr(self, k) for k in
                ("gain", "w", "theta_and", "theta_or", "b_not", "g_ff", "h_ff")}


@dataclass
class ChecksConfig:
    tur_ensembles: int = 100
    tur_walkers: int = 2000
    tur_steps: int = 1000
    tur_forward: float = 0.06
    tur_backward: float = 0.04
    near_eq_ratio: float = 1.01
    trace_random_channels: int = 20
    trace_prior_samples: int = 200
    gauss_tau: float = 1.0
    gauss_sigma: float = 1.0
    tight_snrs: tuple = (0.1, 0.01)
    channel_preset: str = "gaussian"
    classical_trials: int = 400
    classical_T: float = 20.0

    def __post_init__(self):
        if self.channel_preset not in ("gaussian", "corrupted"):
            raise InvalidConfigError("channel_preset must be 'gaussian' or 'corrupted'")
        if self.tur_forward <= 0 or self.tur_backward <= 0 or self.tur_forward + self.tur_backward >= 1:
            raise InvalidConfigError("hop probabilities must be positive with sum < 1")


@dataclass
class SystemConfig:
    """Named preset system with its shape parameters (see metriplectic.PRESETS)."""

    preset: str = "isotropic-decay"
    dim: int = 2
    lam: float = 1.0
    omega: float = 1.0
    noise: float = 0.0
    n_rev: int = 2
    n_diss: int = 2

    def build(self):
        from .metriplectic import make_preset

        kwargs = {
            "harmonic": {"omega": self.omega},
            "block-disjoint": {"n_rev": self.n_rev, "n_diss": self.n_diss,
                               "omega": self.omega, "lam": self.lam},
            "isotropic-decay": {"dim": self.dim, "lam": self.lam,
                                "omega": self.omega, "noise": self.noise},
        }
        if self.preset not in kwargs:
            raise InvalidConfigError(f"unknown system preset {self.preset!r}")
        return make_preset(self.preset, **kwargs[self.preset])


@dataclass
class MonitorConfig:
    lam: float = 10.0
    steps: int = 1000
    dt: float = 0.05
    P_max: float = 1.0
    I_dot_max: float = 1.0
    s_crit: float = 5.0
    f_max: float = 1.0
    chi_min: float = 0.0
    chi_max: float = 100.0
    window: int = 100


@dataclass
class RunConfig:
    seed: int = 0
    exp1: Exp1Config = field(default_factory=Exp1Config)
    exp2: Exp2Config = field(default_factory=Exp2Config)
    exp3: Exp3Config = field(default_factory=Exp3Config)
    exp4: Exp4Config = field(default_factory=Exp4Config)
    bitflip: ProtocolRunConfig = field(default_factory=lambda: ProtocolRunConfig(
        T_protocol=10.0, durations=(10.0, 20.0, 40.0, 80.0)))
    erasure: ProtocolRunConfig = field(default_factory=lambda: ProtocolRunConfig(T_protocol=40.0))
    gates: GatesConfig = field(default_factory=GatesConfig)
    checks: ChecksConfig = field(default_factory=ChecksConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    system: SystemConfig = field(default_factory=SystemConfig)

    def resolved(self):
        """Every parameter in force, defaults included."""
        out = {"seed": self.seed}
        for f in fields(self):
            if f.name == "seed":
                continue
            sub = getattr(self, f.name)
            out[f.name] = {k: _plain(v) for k, v in dataclasses.asdict(sub).items()}
        return out


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


_SECTIONS = {
    "exp1": Exp1Config,
    "exp2": Exp2Config,
    "exp3": Exp3Config,
    "exp4": Exp4Config,
    "bitflip": ProtocolRunConfig,
    "erasure": ProtocolRunConfig,
    "gates": GatesConfig,
    "checks": ChecksConfig,
    "monitor": MonitorConfig,
    "system": SystemConfig,
}


def _coerce(section, key, value, ftype):
    if ftype is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif ftype is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidConfigError(f"{section}.{key} must be an integer, got {value!r}")
        return value
    elif ftype is bool:
        if isinstance(value, bool):
            return value
    elif ftype is tuple:
        if isinstance(value, list):
            return tuple(value)
    elif ftype is str:
        if isinstance(value, str):
            return value
    else:
        return value
    raise InvalidConfigError(f"{section}.{key} has invalid type: expected {ftype.__name__}, got {value!r}")


def build_run_config(sections) -> RunConfig:
    known = dict(_SECTIONS)
    overrides = {}
    seed = 0
    for sec, kv in sections.items():
        if sec == "run":
            for k, v in kv.items():
                if k != "seed":
                    raise InvalidConfigError(f"unknown key run.{k}")
                seed = _coerce("run", "seed", v, int)
            continue
        if sec not in known:
            raise InvalidConfigError(f"unknown section [{sec}]")
        cls = known[sec]
        ftypes = {f.name: f.type for f in fields(cls)}
        fdefs = {f.name: f for f in fields(cls)}
        kwargs = {}
        for k, v in kv.items():
            if k not in ftypes:
                raise InvalidConfigError(f"unknown key {sec}.{k}")
            ann = fdefs[k].type
            ftype = {"float": float, "int": int, "bool": bool, "tuple": tuple, "str": str}.get(
                ann if isinstance(ann, str) else getattr(ann, "__name__", ""), None)
            kwargs[k] = _coerce(sec, k, v, ftype) if ftype else v
        overrides[sec] = kwargs
    cfg = RunConfig(seed=seed)
    for sec, kwargs in overrides.items():
        current = dataclasses.asdict(getattr(cfg, sec))
        current.update(kwargs)
        try:
            setattr(cfg, sec, _SECTIONS[sec](**current))
        except InvalidConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(f"bad [{sec}] configuration: {exc}") from exc
    return cfg


def parse_config(path=None) -> RunConfig:
    """Load a config file (or all defaults when path is None/empty file)."""
    if path is None:
        return RunConfig()
    with open(path) as fh:
        text = fh.read()
    return build_run_config(parse_config_text(text))
