"""Exception types shared across the package, and the config field check."""

import dataclasses
import math


class MetrilabError(Exception):
    """Base class for all package errors."""


class IntegrationDivergedError(MetrilabError):
    """Integration produced a non-finite state. Carries the failing step index."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class SingularMatrixError(MetrilabError):
    """Linear solve hit a singular (or non-PD) normal-equation system."""


class NoConvergenceError(MetrilabError):
    """Iterative estimate failed to converge within the iteration cap."""


class InvalidConfigError(MetrilabError):
    """Bad configuration value or unknown key. `key` names the field when its
    own bound failed; the message then starts with that name."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message)


def check_fields(cfg):
    """The per-field rule of a config section (a dataclass instance).

    Every float field, and every float inside a tuple field, must be finite.
    The fields named in the class-level tuples POSITIVE and NONNEGATIVE must
    then be > 0 and >= 0, elementwise for tuples. Those tuples are plain class
    attributes, not fields, so they never reach the section's `__dict__`.
    """
    rules = [(f.name, "finite", lambda v: not isinstance(v, float) or math.isfinite(v))
             for f in dataclasses.fields(cfg)]
    rules += [(name, "> 0", lambda v: v > 0) for name in getattr(cfg, "POSITIVE", ())]
    rules += [(name, ">= 0", lambda v: v >= 0) for name in getattr(cfg, "NONNEGATIVE", ())]
    for name, rule, ok in rules:
        value = getattr(cfg, name)
        if not all(map(ok, value if isinstance(value, tuple) else (value,))):
            raise InvalidConfigError(f"{name} must be {rule}, got {value!r}", key=name)


class InvalidGateParamsError(InvalidConfigError):
    """Gate parameters outside the verified bistability/monostability regime;
    they come from `[gates]`, so this is a configuration error."""


class NoSettleError(MetrilabError):
    """Circuit state still in the forbidden band at t_max."""

    def __init__(self, message, final_state=None):
        self.final_state = final_state
        super().__init__(message)


class NonFixedPointError(MetrilabError):
    """Circuit keeps moving inside a logical interval (oscillation in window)."""


class AmbiguousStateError(MetrilabError):
    """Symmetric race or unresolvable tie in a bistable element."""


class UndefinedIntelligenceError(MetrilabError):
    """Work-per-nat ratio requested with zero irreversible information."""


class UndefinedConsciousnessError(MetrilabError):
    """Work-per-nat ratio requested with zero preserved information."""


class ChannelIrregularError(MetrilabError):
    """Channel Fisher integral is non-finite."""


class InsufficientDataError(MetrilabError):
    """A check needs time-resolved channels the caller did not supply."""


class BorderContactError(MetrilabError):
    """Lattice energy reached the border, invalidating the no-boundary guarantee."""


class InternalLogicError(MetrilabError):
    """A condition the implementation guarantees unreachable was reached."""
