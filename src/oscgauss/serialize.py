"""Deterministic decimal-string writers for the CLI file formats.

Pure formatting: every numeric value leaves the process as a decimal string
at an explicit digit count (never a binary float), so extended-precision
results keep their digits and two runs with the same configuration produce
byte-identical files.  Integers and booleans stay native JSON.  numpy
values are formatted as the Python numbers and lists their tolist() gives,
without importing numpy.  Nothing is read back.
"""

from __future__ import annotations

import json

import mpmath as mp

__all__ = [
    "fmt",
    "fmt_complex",
    "moments_csv",
    "rule_csv",
    "measure_csv",
    "curve_json_dict",
    "report_json",
]

DEFAULT_DIGITS = 17


def _native(x):
    """x, or the Python number or nested list of a numpy scalar or array."""
    return x.tolist() if hasattr(x, "tolist") else x


def fmt(x) -> str:
    """Decimal string of a real number at DEFAULT_DIGITS, enough to round-trip a double."""
    with mp.workdps(DEFAULT_DIGITS + 5):
        return mp.nstr(mp.mpf(_native(x)), DEFAULT_DIGITS, strip_zeros=True)


def fmt_complex(z, digits: int = DEFAULT_DIGITS) -> tuple[str, str]:
    with mp.workdps(max(digits + 5, 20)):
        z = mp.mpmathify(_native(z))
        return (mp.nstr(mp.re(z), digits, strip_zeros=True),
                mp.nstr(mp.im(z), digits, strip_zeros=True))


def _jsonable(obj):
    """Recursively map numbers to decimal strings (complex to {re, im})."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    obj = _native(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, (complex, mp.mpc)):
        re, im = fmt_complex(obj)
        return {"re": re, "im": im}
    if isinstance(obj, (float, mp.mpf)):
        return fmt(obj)
    return obj


def report_json(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, decimal strings."""
    return json.dumps(_jsonable(obj), sort_keys=True,
                      separators=(",", ": "), indent=1) + "\n"


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def moments_csv(moment_values, digits: int = DEFAULT_DIGITS) -> str:
    lines = ["k,re,im"]
    for k, m in enumerate(moment_values):
        re, im = fmt_complex(m, digits)
        lines.append(f"{k},{re},{im}")
    return "\n".join(lines) + "\n"


def rule_csv(rule, digits: int = DEFAULT_DIGITS) -> str:
    lines = ["k,node_re,node_im,weight_re,weight_im"]
    for k, (z, w) in enumerate(zip(rule.nodes, rule.weights)):
        zr, zi = fmt_complex(z, digits)
        wr, wi = fmt_complex(w, digits)
        lines.append(f"{k},{zr},{zi},{wr},{wi}")
    return "\n".join(lines) + "\n"


def measure_csv(curve) -> str:
    """Rows s, point, density, cdf along a CurvePolyline."""
    lines = ["s,re,im,density,cdf"]
    for s, z, d, c in zip(curve.s, curve.points, curve.density, curve.cdf):
        zr, zi = fmt_complex(z)
        lines.append(f"{fmt(s)},{zr},{zi},{fmt(d)},{fmt(c)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Curve JSON
# ---------------------------------------------------------------------------

def _curve_dict(name: str, curve) -> dict:
    pts = curve.points
    return {
        "kind": name,
        "points_re": [fmt(x) for x in pts.real],
        "points_im": [fmt(x) for x in pts.imag],
        "arclength": [fmt(x) for x in curve.s],
        "density": [fmt(x) for x in curve.density],
        "cdf": [fmt(x) for x in curve.cdf],
        "total_mass": fmt(curve.total_mass),
    }


def curve_json_dict(curves: dict) -> dict:
    """{"curves": {name: curve-dict}} for any mapping of named CurvePolylines."""
    return {"curves": {name: _curve_dict(name, c) for name, c in curves.items()}}
