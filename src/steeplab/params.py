"""Model parameters, channel state, and report containers.

Conventions shared by the whole package:

* Every logarithm is base 2; every rate, entropy, or capacity is in bits.
* A circular complex Gaussian CN(0, v) has independent real and imaginary
  parts, each of variance v/2.
* Powers and variances are linear quantities (never dB).

A parameter set is valid by construction: :class:`SystemParams` runs
:func:`validate` when built, directly or by ``dataclasses.replace``, and
raises :class:`ParamError` naming the first bad field, so no consumer
re-checks one.  The flat ``key = value`` config format parsed here is the
single on-disk representation of :class:`SystemParams`; the command line
maps flags of the same names onto the same structure.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import json
import math
import typing
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ParamError",
    "SystemParams",
    "ChannelRealization",
    "RateReport",
    "validate",
    "parse_config",
    "format_config",
    "read_config",
]


class ParamError(ValueError):
    """A parameter or report value violates one of its invariants."""


# =====================================================================
# System parameters
# =====================================================================

@dataclass(frozen=True)
class SystemParams:
    """Every scalar the analog model needs.  Immutable; share freely.

    ``eps_A`` / ``eps_E`` are the return-path noise variances at Alice and
    Eve.  Zero is legal for closed-form evaluation but the simulators insist
    on strictly positive values, since a noiseless return channel is outside
    the physical model.
    """

    p_A: float = 1.0        # Alice probe symbol power
    p_B: float = 1.0        # Bob probe symbol power (two-way probing only)
    sigma_A2: float = 1.0   # receiver noise variance at Alice
    sigma_B2: float = 1.0   # receiver noise variance at Bob
    sigma_EA2: float = 1.0  # Eve per-antenna noise variance, probes from Alice
    sigma_EB2: float = 1.0  # Eve per-antenna noise variance, probes from Bob
    sigma_s2: float = 1.0   # power of Bob's secret sequence
    eps_A: float = 1.0      # return-path noise variance at Alice
    eps_E: float = 1.0      # return-path noise variance at Eve
    rho: complex = 0.5      # probing-gain cross-correlation, |rho| < 1
    n_E: int = 2            # Eve antenna count
    m_A: int = 4            # probes sent by Alice
    m_B: int = 0            # probes sent by Bob

    def __post_init__(self):
        validate(self)


_POSITIVE_FIELDS = (
    "p_A", "p_B", "sigma_A2", "sigma_B2", "sigma_EA2", "sigma_EB2", "sigma_s2",
)


def validate(params: SystemParams) -> SystemParams:
    """Return ``params`` unchanged if every invariant holds.

    Raises:
        ParamError: naming the first violated invariant.
    """
    for name in _POSITIVE_FIELDS:
        _real(name, getattr(params, name), "be a finite positive number",
              lambda v: v > 0)
    for name in ("eps_A", "eps_E"):
        _real(name, getattr(params, name), "be finite and >= 0",
              lambda v: v >= 0)
    r = params.rho
    if not isinstance(r, (int, float, complex, np.number)) or isinstance(r, bool):
        raise ParamError(f"rho must be a real or complex number, got {r!r}")
    if not (cmath.isfinite(r) and abs(r) < 1):
        raise ParamError("|rho| must be < 1")
    _integer("n_E", params.n_E, 1)
    _integer("m_A", params.m_A, 0)
    _integer("m_B", params.m_B, 0)
    return params


# The two argument rules: every seed, count and real argument is checked by
# one of them, and a bad one raises ParamError naming it.

def _integer(name: str, v, lo: int | None = None) -> int:
    """``v`` as an int: an int or numpy integer, never a bool or a float,
    at least ``lo`` when one is given."""
    if type(v) is not int:   # a plain int, as every batch seed is, passes
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ParamError(f"{name} must be an integer, got {v!r}")
        v = int(v)
    if lo is not None and v < lo:
        raise ParamError(f"{name} must be >= {lo}, got {v}")
    return v


def _real(name: str, v, want: str, ok: Callable[[float], bool]) -> None:
    """Raise ParamError ``"{name} must {want}, got {v!r}"`` unless ``v`` is
    a finite int, float or numpy real, never a bool, a string or None, for
    which ``ok`` holds."""
    if not (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and math.isfinite(v) and ok(v)):
        raise ParamError(f"{name} must {want}, got {v!r}")


# =====================================================================
# Channel state
# =====================================================================

@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of all channel gains for an episode.

    ``h_AB`` is the gain Alice -> Bob direction sees on Bob's probes as
    received by Alice; ``h_BA`` the gain on Alice's probes as received by
    Bob.  The pair is jointly Gaussian with unit variances and correlation
    ``rho``.  ``g_A`` / ``g_B`` are Eve's length-``n_E`` gain vectors for
    probes from Alice / Bob.

    A batch of T draws holds the same fields with a leading trial axis:
    ``h_AB``, ``h_BA`` of shape (T,) and ``g_A``, ``g_B`` of shape (T, n_E).
    """

    h_AB: complex | np.ndarray
    h_BA: complex | np.ndarray
    g_A: np.ndarray
    g_B: np.ndarray

    def check_for(self, params: SystemParams) -> "ChannelRealization":
        """Raise ParamError unless the gain vectors match ``params.n_E``
        and the batch shape of the gains."""
        batch = np.shape(self.h_AB)
        if np.shape(self.h_BA) != batch:
            raise ParamError(f"h_BA must have shape {batch}, got "
                             f"{np.shape(self.h_BA)}")
        for name in ("g_A", "g_B"):
            g = np.asarray(getattr(self, name))
            if g.shape != batch + (params.n_E,):
                raise ParamError(
                    f"{name} must have shape {batch + (params.n_E,)}, "
                    f"got {g.shape}")
        return self


# =====================================================================
# Rate reports
# =====================================================================

@dataclass
class RateReport:
    """Named numeric results plus the parameters that produced them.

    ``values`` maps quantity name to a finite float; ``stderr`` carries the
    Monte Carlo standard error for estimated entries (absent for exact
    ones).  ``notes`` holds human-readable caveats and never affects the
    numbers.
    """

    params: SystemParams
    values: dict[str, float] = field(default_factory=dict)
    stderr: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self) -> "RateReport":
        """Raise ParamError if any reported value is non-finite."""
        for book in (self.values, self.stderr):
            for key, val in book.items():
                if not math.isfinite(val):
                    raise ParamError(f"report value {key} is not finite: {val!r}")
        return self

    def to_json(self) -> str:
        payload = {
            "params": _params_to_jsonable(self.params),
            "values": {k: float(v) for k, v in self.values.items()},
            "stderr": {k: float(v) for k, v in self.stderr.items()},
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# =====================================================================
# The parameter schema: a params dataclass's annotations are its field types
# =====================================================================

@functools.cache
def _field_types(cls: type) -> dict[str, type]:
    """Field name -> annotated type (int, float or complex), in field order."""
    return typing.get_type_hints(cls)


def _coerce_value(key: str, text: str, cls: type):
    """Parse the text form of field ``key`` of ``cls``; a real complex is a float."""
    typ = _field_types(cls)[key]
    try:
        if typ is complex:
            c = complex(text)
            return c.real if c.imag == 0.0 else c
        return typ(text)
    except ValueError as exc:
        raise ParamError(f"parameter '{key}': cannot parse value {text!r}") from exc


def _params_to_jsonable(params) -> dict:
    """Field name -> its value as an int, a float or, for complex, a string."""
    out = {}
    for name, typ in _field_types(type(params)).items():
        v = getattr(params, name)
        if typ is complex:
            c = complex(v)
            out[name] = repr(c.real) if c.imag == 0.0 else str(c)
        else:
            out[name] = typ(v)
    return out


def _replace_from_text(base, pairs):
    """``base`` with each ``(key, text)`` pair parsed and applied; like every
    params object, the result was validated when built."""
    updates = {}
    for key, text in pairs:
        if key not in _field_types(type(base)):
            raise ParamError(f"unknown config key '{key}'")
        updates[key] = _coerce_value(key, text, type(base))
    return dataclasses.replace(base, **updates)


# =====================================================================
# Flat key = value config files
# =====================================================================

def parse_config(text: str) -> SystemParams:
    """Parse flat ``key = value`` lines into validated SystemParams.

    ``#`` starts a comment (whole line or trailing).  Unknown or repeated
    keys raise ParamError naming the key; omitted keys take their defaults.
    """
    pairs, seen = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ParamError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key in seen:
            raise ParamError(f"config key '{key}' is set twice, on lines "
                             f"{seen[key]} and {lineno}")
        seen[key] = lineno
        pairs.append((key, val))
    return _replace_from_text(SystemParams(), pairs)


def format_config(params: SystemParams) -> str:
    """Serialize params to config text; parse(format(p)) == p."""
    return "".join(f"{k} = {v}\n" for k, v in _params_to_jsonable(params).items())


def read_config(path: str | Path) -> SystemParams:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParamError(f"config file {path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)
