"""Deterministic decimal-string serialization for the CLI file formats.

Every numeric value crosses the process boundary as a decimal string at an
explicit digit count (never a binary float), so extended-precision results
survive the round trip and two runs with the same configuration produce
byte-identical files.  Integers and booleans stay native JSON.
"""

from __future__ import annotations

import json

import mpmath as mp
import numpy as np

from .scurve import CurvePolyline

__all__ = [
    "fmt",
    "fmt_complex",
    "moments_csv",
    "rule_csv",
    "measure_csv",
    "curve_json_dict",
    "curve_from_json_dict",
    "report_json",
]

DEFAULT_DIGITS = 17


def fmt(x) -> str:
    """Decimal string of a real number at DEFAULT_DIGITS, enough to round-trip a double."""
    with mp.workdps(DEFAULT_DIGITS + 5):
        v = mp.mpf(float(x)) if isinstance(x, (float, np.floating)) else mp.mpf(x)
        return mp.nstr(v, DEFAULT_DIGITS, strip_zeros=True)


def fmt_complex(z, digits: int = DEFAULT_DIGITS) -> tuple[str, str]:
    with mp.workdps(max(digits + 5, 20)):
        z = mp.mpmathify(complex(z)) if isinstance(z, (complex, np.complexfloating)) \
            else mp.mpmathify(z)
        return (mp.nstr(mp.re(z), digits, strip_zeros=True),
                mp.nstr(mp.im(z), digits, strip_zeros=True))


def _jsonable(obj):
    """Recursively map numbers to decimal strings (complex to {re, im})."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating, mp.mpc)):
        re, im = fmt_complex(obj)
        return {"re": re, "im": im}
    if isinstance(obj, (float, np.floating, mp.mpf)):
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


def measure_csv(curve: CurvePolyline) -> str:
    """Rows s, point, density, cdf along an annotated curve."""
    if curve.density is None or curve.cdf is None:
        raise ValueError("curve carries no measure annotation")
    lines = ["s,re,im,density,cdf"]
    for s, z, d, c in zip(curve.s, curve.points, curve.density, curve.cdf):
        zr, zi = fmt_complex(z)
        lines.append(f"{fmt(s)},{zr},{zi},{fmt(d)},{fmt(c)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Curve JSON
# ---------------------------------------------------------------------------

def _curve_dict(curve: CurvePolyline) -> dict:
    pts = curve.points
    d = {
        "kind": curve.kind,
        "points_re": [fmt(x) for x in pts.real],
        "points_im": [fmt(x) for x in pts.imag],
        "arclength": [fmt(x) for x in curve.s],
    }
    if curve.density is not None:
        d["density"] = [fmt(x) for x in curve.density]
    if curve.cdf is not None:
        d["cdf"] = [fmt(x) for x in curve.cdf]
        d["total_mass"] = fmt(curve.total_mass)
    return d


def curve_json_dict(curves: dict) -> dict:
    """{"curves": {name: curve-dict}} for any mapping of named polylines."""
    return {"curves": {name: _curve_dict(c) for name, c in curves.items()}}


def curve_from_json_dict(doc: dict) -> CurvePolyline:
    """Rebuild gamma's vertices and arc length from a curve_json_dict document.

    Reads only kind, points_re, points_im and arclength (floats from
    strings); the measure annotations are left to equilibrium_measure.
    Raises ValueError for any other shape, a field that is not a JSON array,
    null entries and ragged arrays included.
    """
    try:
        d = doc["curves"]["gamma"]
        kind = d["kind"]
        arrays = {k: d[k] for k in ("points_re", "points_im", "arclength")}
        for k, v in arrays.items():
            if not isinstance(v, list):
                raise ValueError(f"curve field {k!r} is not a JSON array")
        lengths = {k: len(v) for k, v in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"curve arrays differ in length: {lengths}")
        pts = np.array([complex(float(a), float(b))
                        for a, b in zip(arrays["points_re"], arrays["points_im"])])
        s = np.array([float(x) for x in arrays["arclength"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a curve document with a well-formed curves['gamma'] "
                         f"({type(exc).__name__}: {exc})") from exc
    return CurvePolyline(kind=kind, points=pts, s=s, density=None, cdf=None)
