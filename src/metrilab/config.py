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
from .circuits import GateParams
from .errors import InvalidConfigError
from .experiments import Exp1Config, Exp2Config, Exp3Config, Exp4Config
from .metrics import TUR_MIN_SAMPLES, SafetyLimits

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
class ProtocolRunConfig(DoubleWellParams):
    """Double-well protocol parameters plus run-level controls."""

    T_protocol: float = 20.0
    trials: int = 1000
    durations: tuple = ()
    per_trial_csv: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.trials < 2:
            raise InvalidConfigError(f"trials must be >= 2 for a spread, got {self.trials}")
        if min((self.T_protocol, *self.durations)) <= 0:
            raise InvalidConfigError("T_protocol and durations must be > 0")

    def duration_sweep(self):
        return tuple(self.durations) if self.durations else (self.T_protocol,)


@dataclass(frozen=True)
class GatesConfig(GateParams):
    """Gate constants plus the state-noise level of the noisy rows."""

    noise: float = 1e-3

    def __post_init__(self):
        if not (np.isfinite(self.noise) and self.noise >= 0.0):
            raise InvalidConfigError(f"gates.noise must be finite and >= 0, got {self.noise!r}")


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
        if self.tur_walkers < TUR_MIN_SAMPLES:
            raise InvalidConfigError(f"tur_walkers must be >= {TUR_MIN_SAMPLES}, got {self.tur_walkers}")
        if self.classical_trials < 2:
            raise InvalidConfigError(f"classical_trials must be >= 2, got {self.classical_trials}")


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

    def __post_init__(self):
        self.limits()  # rejects chi_min >= chi_max and any limit <= 0

    def limits(self):
        return SafetyLimits(chi_range=(self.chi_min, self.chi_max), P_max=self.P_max,
                            I_dot_max=self.I_dot_max, s_crit=self.s_crit, f_max=self.f_max)


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


_SECTIONS = {f.name: f.type for f in fields(RunConfig) if f.name != "seed"}


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
    overrides = {}
    seed = 0
    for sec, kv in sections.items():
        if sec == "run":
            for k, v in kv.items():
                if k != "seed":
                    raise InvalidConfigError(f"unknown key run.{k}")
                seed = _coerce("run", "seed", v, int)
            continue
        if sec not in _SECTIONS:
            raise InvalidConfigError(f"unknown section [{sec}]")
        ftypes = {f.name: f.type for f in fields(_SECTIONS[sec])}
        kwargs = {}
        for k, v in kv.items():
            if k not in ftypes:
                raise InvalidConfigError(f"unknown key {sec}.{k}")
            kwargs[k] = _coerce(sec, k, v, ftypes[k])
        overrides[sec] = kwargs
    cfg = RunConfig(seed=seed)
    for sec, kwargs in overrides.items():
        current = dataclasses.asdict(getattr(cfg, sec))
        current.update(kwargs)
        try:
            setattr(cfg, sec, _SECTIONS[sec](**current))
        except (InvalidConfigError, TypeError, ValueError) as exc:
            raise InvalidConfigError(f"bad [{sec}] configuration: {exc}") from exc
    return cfg


def parse_config(path=None) -> RunConfig:
    """Load a config file (or all defaults when path is None/empty file)."""
    if path is None:
        return RunConfig()
    with open(path) as fh:
        text = fh.read()
    return build_run_config(parse_config_text(text))
