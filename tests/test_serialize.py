"""Decimal-string serialization: determinism and round trips."""

import json

import numpy as np

from oscgauss import opq, serialize


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        assert float(serialize.fmt(x)) == x


def test_fmt_complex_splits_parts():
    re, im = serialize.fmt_complex(1.5 - 0.25j, 10)
    assert float(re) == 1.5 and float(im) == -0.25


def test_report_json_is_canonical():
    doc = {"b": 1.5, "a": [2, 0.1 + 0.2j], "flag": True}
    t1 = serialize.report_json(doc)
    t2 = serialize.report_json({"flag": True, "a": [2, 0.1 + 0.2j], "b": 1.5})
    assert t1 == t2
    parsed = json.loads(t1)
    assert parsed["flag"] is True
    assert parsed["a"][0] == 2
    assert set(parsed["a"][1]) == {"re", "im"}
    assert isinstance(parsed["b"], str)


def test_moments_csv_rows(ctx30):
    ms = opq.moment_sequence(opq.WeightSpec(r=3), 5, ctx30)
    lines = serialize.moments_csv(ms).splitlines()
    assert lines[0] == "k,re,im"
    assert len(lines) == 7
    k2 = lines[3].split(",")
    assert k2[0] == "2" and float(k2[1]) == 0.0 and float(k2[2]) == 0.0


def test_rule_csv_deterministic():
    rule = opq.build_rule(2, opq.WeightSpec(r=3))
    assert serialize.rule_csv(rule) == serialize.rule_csv(rule)
    header = serialize.rule_csv(rule).splitlines()[0]
    assert header == "k,node_re,node_im,weight_re,weight_im"


def test_measure_csv_header_and_mass(phase):
    lines = serialize.measure_csv(phase.gamma).splitlines()
    assert lines[0] == "s,re,im,density,cdf"
    last = lines[-1].split(",")
    assert abs(float(last[4]) - 1.0) <= 1e-10


def test_numpy_values_print_as_their_python_numbers():
    # serialize never imports numpy: its scalars and arrays become Python
    # numbers and lists (tolist) and print exactly as they always have
    doc = {"f32": np.float32(0.1), "f64": np.float64(0.1), "i64": np.int64(-7),
           "b": np.bool_(True), "c128": np.complex128(0.1 - 0.2j), "c64": np.complex64(0.1 + 3j),
           "grid": np.array([[1.5, 0.1], [-2.0, 1e-300]]), "mask": np.array([[True, False]])}
    assert json.loads(serialize.report_json(doc)) == {
        "f32": "0.10000000149011612", "f64": "0.10000000000000001", "i64": -7, "b": True,
        "c128": {"re": "0.10000000000000001", "im": "-0.20000000000000001"},
        "c64": {"re": "0.10000000149011612", "im": "3.0"},
        "grid": [["1.5", "0.10000000000000001"], ["-2.0", "1.0e-300"]],
        "mask": [[True, False]]}
    assert serialize.fmt(np.float32(0.1)) == "0.10000000149011612"
    assert serialize.fmt_complex(np.complex64(0.1 + 3j)) == ("0.10000000149011612", "3.0")
    assert serialize.fmt_complex(np.float64(2.5)) == ("2.5", "0.0")
