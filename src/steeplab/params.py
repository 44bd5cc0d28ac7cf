"""Model parameters, channel state, and report containers.

Conventions shared by the whole package:

* Every logarithm is base 2; every rate, entropy, or capacity is in bits.
* A circular complex Gaussian CN(0, v) has independent real and imaginary
  parts, each of variance v/2.
* Powers and variances are linear quantities (never dB).

The flat ``key = value`` config format parsed here is the single on-disk
representation of :class:`SystemParams`; the command line maps flags of the
same names onto the same structure.
"""
from __future__ import annotations

import dataclasses
import json
import math
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


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SystemParams))
_INT_FIELDS = {"n_E", "m_A", "m_B"}
_COMPLEX_FIELDS = {"rho"}
_POSITIVE_FIELDS = (
    "p_A", "p_B", "sigma_A2", "sigma_B2", "sigma_EA2", "sigma_EB2", "sigma_s2",
)


def validate(params: SystemParams) -> SystemParams:
    """Return ``params`` unchanged if every invariant holds.

    Raises:
        ParamError: naming the first violated invariant.
    """
    for name in _POSITIVE_FIELDS:
        v = getattr(params, name)
        if not (_is_real(v) and math.isfinite(v) and v > 0):
            raise ParamError(f"{name} must be a finite positive number, got {v!r}")
    for name in ("eps_A", "eps_E"):
        v = getattr(params, name)
        if not (_is_real(v) and math.isfinite(v) and v >= 0):
            raise ParamError(f"{name} must be finite and >= 0, got {v!r}")
    r = complex(params.rho)
    if not (math.isfinite(r.real) and math.isfinite(r.imag) and abs(r) < 1):
        raise ParamError("|rho| must be < 1")
    if not (_is_int(params.n_E) and params.n_E >= 1):
        raise ParamError(f"n_E must be an integer >= 1, got {params.n_E!r}")
    for name in ("m_A", "m_B"):
        v = getattr(params, name)
        if not (_is_int(v) and v >= 0):
            raise ParamError(f"{name} must be an integer >= 0, got {v!r}")
    return params


def _is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
    """

    h_AB: complex
    h_BA: complex
    g_A: np.ndarray
    g_B: np.ndarray

    def check_for(self, params: SystemParams) -> "ChannelRealization":
        """Raise ParamError unless the gain vectors match ``params.n_E``."""
        for name in ("g_A", "g_B"):
            g = np.asarray(getattr(self, name))
            if g.shape != (params.n_E,):
                raise ParamError(
                    f"{name} must have shape ({params.n_E},), got {g.shape}"
                )
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

    @staticmethod
    def from_json(text: str) -> "RateReport":
        payload = json.loads(text)
        raw = {str(k): v for k, v in payload["params"].items()}
        kwargs = {k: _coerce_value(k, str(v)) for k, v in raw.items()}
        return RateReport(
            params=SystemParams(**kwargs),
            values={k: float(v) for k, v in payload.get("values", {}).items()},
            stderr={k: float(v) for k, v in payload.get("stderr", {}).items()},
            notes=[str(n) for n in payload.get("notes", [])],
        )


def _params_to_jsonable(params: SystemParams) -> dict:
    out = {}
    for name in _FIELD_NAMES:
        v = getattr(params, name)
        if name in _COMPLEX_FIELDS:
            c = complex(v)
            out[name] = repr(c.real) if c.imag == 0.0 else str(c)
        elif name in _INT_FIELDS:
            out[name] = int(v)
        else:
            out[name] = float(v)
    return out


# =====================================================================
# Flat key = value config files
# =====================================================================

def parse_config(text: str) -> SystemParams:
    """Parse flat ``key = value`` lines into validated SystemParams.

    ``#`` starts a comment (whole line or trailing).  Unknown keys raise
    ParamError naming the key; omitted keys take their defaults.
    """
    updates: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ParamError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _FIELD_NAMES:
            raise ParamError(f"unknown config key '{key}'")
        updates[key] = _coerce_value(key, val)
    return validate(SystemParams(**updates))


def _coerce_value(key: str, text: str):
    try:
        if key in _INT_FIELDS:
            return int(text)
        if key in _COMPLEX_FIELDS:
            c = complex(text)
            return c.real if c.imag == 0.0 else c
        return float(text)
    except ValueError as exc:
        raise ParamError(f"parameter '{key}': cannot parse value {text!r}") from exc


def format_config(params: SystemParams) -> str:
    """Serialize params to config text; parse(format(p)) == p."""
    lines = []
    for name in _FIELD_NAMES:
        v = getattr(params, name)
        if name in _COMPLEX_FIELDS:
            c = complex(v)
            lines.append(f"{name} = {repr(c.real) if c.imag == 0.0 else str(c)}")
        elif name in _INT_FIELDS:
            lines.append(f"{name} = {int(v)}")
        else:
            lines.append(f"{name} = {repr(float(v))}")
    return "\n".join(lines) + "\n"


def read_config(path: str | Path) -> SystemParams:
    return parse_config(Path(path).read_text(encoding="utf-8"))
