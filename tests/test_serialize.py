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
