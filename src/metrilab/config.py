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
from .errors import InvalidConfigError, check_fields
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


@dataclass(frozen=True)
class ProtocolRunConfig(DoubleWellParams):
    """Double-well protocol parameters plus run-level controls."""

    T_protocol: float = 20.0
    trials: int = 1000
    durations: tuple = ()
    per_trial_csv: bool = False

    POSITIVE = DoubleWellParams.POSITIVE + ("T_protocol", "durations")

    def __post_init__(self):
        check_fields(self)
        if self.trials < 2:
            raise InvalidConfigError(f"trials must be >= 2 for a spread, got {self.trials}")


@dataclass(frozen=True)
class GatesConfig(GateParams):
    """Gate constants plus the state-noise level of the noisy rows."""

    noise: float = 1e-3

    NONNEGATIVE = ("noise",)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
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

    POSITIVE = ("tur_steps", "tur_forward", "tur_backward", "near_eq_ratio", "trace_prior_samples",
                "gauss_tau", "gauss_sigma", "tight_snrs", "classical_T")
    NONNEGATIVE = ("tur_ensembles", "trace_random_channels")

    def __post_init__(self):
        check_fields(self)
        if self.channel_preset not in ("gaussian", "corrupted"):
            raise InvalidConfigError("channel_preset must be 'gaussian' or 'corrupted'")
        if self.tur_forward + self.tur_backward >= 1:
            raise InvalidConfigError("tur_forward + tur_backward must be < 1")
        if self.tur_walkers < TUR_MIN_SAMPLES:
            raise InvalidConfigError(f"tur_walkers must be >= {TUR_MIN_SAMPLES}, got {self.tur_walkers}")
        if self.classical_trials < 2:
            raise InvalidConfigError(f"classical_trials must be >= 2, got {self.classical_trials}")
        if len(set(self.tight_snrs)) < len(self.tight_snrs):
            raise InvalidConfigError(f"tight_snrs must be distinct, got {self.tight_snrs}",
                                     key="tight_snrs")
        f_eq, b_eq = self.near_eq_hops()
        if not (f_eq > 0 and b_eq > 0):
            raise InvalidConfigError(f"near_eq_ratio must leave both near-equilibrium hop "
                                     f"probabilities > 0, got {self.near_eq_ratio!r} "
                                     f"(hops {f_eq!r}, {b_eq!r})", key="near_eq_ratio")

    def near_eq_hops(self):
        """(forward, backward) hop probabilities of the near-equilibrium walk:
        the TUR walk's total hop rate, split in the ratio near_eq_ratio."""
        hop = 0.5 * (self.tur_forward + self.tur_backward)
        f_eq = hop * self.near_eq_ratio / (1.0 + self.near_eq_ratio) * 2.0
        return f_eq, 2.0 * hop - f_eq


@dataclass(frozen=True)
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

    POSITIVE = ("steps", "dt", "P_max", "I_dot_max", "s_crit", "f_max", "window")

    def __post_init__(self):
        check_fields(self)
        self.limits()  # rejects chi_min >= chi_max

    def limits(self):
        return SafetyLimits(chi_range=(self.chi_min, self.chi_max), P_max=self.P_max,
                            I_dot_max=self.I_dot_max, s_crit=self.s_crit, f_max=self.f_max)


@dataclass(frozen=True)
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

    NONNEGATIVE = ("seed",)

    def __post_init__(self):
        check_fields(self)
        if not self.bitflip.durations:
            raise InvalidConfigError("bitflip.durations must list at least one protocol duration")

    def resolved(self):
        """Every parameter in force, defaults included."""
        return dataclasses.asdict(self)


_SECTIONS = {f.name: f.type for f in fields(RunConfig) if f.name != "seed"}

# The protocol key each subcommand never reads: bitflip sweeps its
# durations, erasure runs once at its T_protocol. Both stay fields, so both
# sections' metadata list the same keys.
_UNREAD = {"bitflip": "T_protocol", "erasure": "durations"}


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
            for v in value:  # every tuple field holds numbers
                _coerce(section, key, v, float)
            return tuple(value)
    elif ftype is str:
        if isinstance(value, str):
            return value
    raise InvalidConfigError(f"{section}.{key} has invalid type: expected {ftype.__name__}, got {value!r}")


def build_run_config(sections) -> RunConfig:
    """Each overridden section is its default with the given keys replaced,
    checked by its own constructor; the others keep their defaults."""
    defaults = RunConfig()
    built = {}
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
        try:
            built[sec] = dataclasses.replace(getattr(defaults, sec), **kwargs)
        except (InvalidConfigError, TypeError, ValueError) as exc:
            where = f"{sec}." if getattr(exc, "key", None) else ""
            raise InvalidConfigError(f"bad [{sec}] configuration: {where}{exc}") from exc
        if _UNREAD.get(sec) in kwargs:
            raise InvalidConfigError(f"{sec}.{_UNREAD[sec]} is never read: bitflip sweeps "
                                     "bitflip.durations and erasure runs erasure.T_protocol")
    return dataclasses.replace(defaults, seed=seed, **built)


def parse_config(path=None) -> RunConfig:
    """Load a UTF-8 config file (or all defaults when path is None/empty file)."""
    if path is None:
        return RunConfig()
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidConfigError(f"config is not valid UTF-8: {exc}") from None
    return build_run_config(parse_config_text(text))
