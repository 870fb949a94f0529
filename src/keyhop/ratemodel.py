"""Key-rate model: loss-limited rates versus distance.

Channel transmittance decays exponentially with fiber length; direct
transmission rates scale with eta while relay-measured links scale with
sqrt(eta), which is the whole point of placing relays. The forwarding scheme
over m intermediaries runs each relay-measured segment across 2 links of
2D/(m+1) km, so it extends range by (m+1)/2 over a single relay link.

Rates are in bits per second. The clock constants are calibrated so a single
relay-measured link yields 1000 bps at 300 km; the direct-transmission bound
uses the same clock against the standard 1.44 * eta ceiling.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable
from typing import NamedTuple

from .topology import parse_float, parse_int, parse_kv

__all__ = [
    "RateParams",
    "eta",
    "rate_tf",
    "rate_p2p",
    "rate_scheme",
    "is_virtually_null",
    "max_range_tf",
    "max_range",
    "emit_curves",
    "curves_csv",
    "parse_rate_config",
    "DEFAULT_FAMILIES",
]

CALIBRATION_KM = 300.0
CALIBRATION_BPS = 1000.0


def _calibrated_clock(alpha_db_per_km: float) -> float:
    # c * sqrt(eta(300)) = 1000 fixes the clock for a given fiber loss.
    if not alpha_db_per_km > 0:
        raise ValueError("alpha_db_per_km must be positive")
    eta_cal = 10 ** (-alpha_db_per_km * CALIBRATION_KM / 10)
    if eta_cal == 0:
        raise ValueError(
            f"alpha_db_per_km {alpha_db_per_km:g} is too lossy to calibrate:"
            f" transmittance at {CALIBRATION_KM:g} km underflows to 0"
        )
    return CALIBRATION_BPS / math.sqrt(eta_cal)


class _RateFields(NamedTuple):
    alpha_db_per_km: float = 0.2
    c_tf: float = _calibrated_clock(0.2)
    c_p2p: float = _calibrated_clock(0.2)
    threshold_bps: float = 1.0


class RateParams(_RateFields):
    """Fiber loss and clock constants. Defaults reproduce the reference
    calibration: alpha 0.2 dB/km gives c_tf = c_p2p = 1e6. Every
    construction checks the range, _replace and unpickling included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RateParams:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> RateParams:  # _replace builds through it
        return cls(*iterable)

    @classmethod
    def calibrated(cls, alpha_db_per_km: float = 0.2) -> RateParams:
        c = _calibrated_clock(alpha_db_per_km)
        return cls(alpha_db_per_km, c, c)


def eta(length_km: float, params: RateParams) -> float:
    """Channel transmittance of length_km of fiber."""
    if length_km < 0:
        raise ValueError("fiber length cannot be negative")
    return 10 ** (-params.alpha_db_per_km * length_km / 10)


def rate_tf(length_km: float, params: RateParams) -> float:
    """Rate of one relay-measured link of total length length_km."""
    return params.c_tf * math.sqrt(eta(length_km, params))


def rate_p2p(length_km: float, params: RateParams) -> float:
    """Direct-transmission ceiling: 1.44 * eta at the common clock."""
    return params.c_p2p * 1.44 * eta(length_km, params)


def rate_scheme(distance_km: float, m: int, params: RateParams) -> float:
    """End-to-end rate of forwarding over m intermediaries at distance_km.

    Every relay-measured segment spans 2 of the m+1 equal links, so the
    bottleneck link rate is rate_tf(2D/(m+1)).
    """
    if m < 2:
        raise ValueError("the scheme needs at least 2 intermediaries")
    return rate_tf(2 * distance_km / (m + 1), params)


def is_virtually_null(rate_bps: float, params: RateParams) -> bool:
    """At or below the usefulness threshold."""
    return rate_bps <= params.threshold_bps


def max_range_tf(params: RateParams) -> float:
    """Largest single-link length whose relay-measured rate meets the
    threshold; closed form of c * 10^(-alpha L / 20) = threshold, and 0
    when not even a link of no length meets it."""
    return max(0.0, (20 / params.alpha_db_per_km) * math.log10(params.c_tf / params.threshold_bps))


def max_range(m: int, params: RateParams) -> float:
    """Largest end-to-end distance the m-intermediary scheme sustains at or
    above the threshold: (m+1)/2 times the single-link reach."""
    if m < 2:
        raise ValueError("the scheme needs at least 2 intermediaries")
    return (m + 1) / 2 * max_range_tf(params)


DEFAULT_FAMILIES = ("p2p", "tf", "scheme(m=2)", "scheme(m=3)", "scheme(m=4)", "scheme(m=5)", "scheme(m=6)")


def _family_rate(family: str) -> Callable[[float, RateParams], float]:
    """The rate function a family names; one whose name or m cannot be read
    is refused here, naming the family."""
    if family == "p2p":
        return rate_p2p
    if family == "tf":
        return rate_tf
    if family.startswith("scheme(m=") and family.endswith(")"):
        m = parse_int(family[len("scheme(m=") : -1], f"rate family {family!r}")
        if m < 2:
            raise ValueError(f"rate family {family!r}: the scheme needs at least 2 intermediaries")
        if m + 1 > sys.float_info.max:  # 2D/(m+1) makes m+1 a float
            raise ValueError(
                f"rate family {family!r}: m exceeds the float range of {sys.float_info.max:g}"
            )
        return lambda d, params: rate_scheme(d, m, params)
    raise ValueError(f"unknown rate family {family!r}")


def emit_curves(
    distances_km: Iterable[float], families: Iterable[str], params: RateParams
) -> list[tuple[float, str, float]]:
    """(distance, family, rate) rows, family-major, distance-ascending."""
    distances = sorted(distances_km)
    if any(d < 0 for d in distances):
        raise ValueError("distances cannot be negative")
    rates = [(fam, _family_rate(fam)) for fam in families]  # each read before any row
    return [(d, fam, rate(d, params)) for fam, rate in rates for d in distances]


def curves_csv(rows: list[tuple[float, str, float]]) -> str:
    out = ["distance_km,family,rate_bps"]
    out += [f"{d:g},{fam},{rate!r}" for d, fam, rate in rows]
    return "\n".join(out) + "\n"


_RATE_KEYS = {"alpha_db_per_km", "c_tf", "c_p2p", "threshold_bps"}


def parse_rate_config(text: str) -> RateParams:
    """Same key = value format the topology configs use. A key the file
    leaves out takes the 0.2 dB/km calibration (c_tf = c_p2p = 1e6), except
    that a file setting alpha_db_per_km but not c_tf calibrates both clocks
    at its alpha; with c_tf set, an unset c_p2p stays 1e6."""
    kv = parse_kv(text)
    unknown = set(kv) - _RATE_KEYS
    if unknown:
        raise ValueError(f"unknown rate keys: {sorted(unknown)}")
    values = {key: parse_float(value, key) for key, value in kv.items()}
    defaults = RateParams()
    if "alpha_db_per_km" in values and "c_tf" not in values:
        defaults = RateParams.calibrated(values["alpha_db_per_km"])
    return defaults._replace(**values)
