"""End-to-end command-line checks via subprocess (installed entry module).

Cases that only probe argument and config handling call `cli.main`
in-process, which skips the interpreter start of a subprocess.
"""

import json
import subprocess
import sys

import mpmath as mp
import pytest

from oscgauss import cli

CLI = [sys.executable, "-m", "oscgauss.cli"]


def run_cli(*argv, check=True):
    proc = subprocess.run(CLI + list(argv), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc


def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_moments_rows_and_structural_zero():
    proc = run_cli("moments", "--kmax", "6")
    lines = proc.stdout.splitlines()
    assert lines[0] == "k,re,im"
    assert len(lines) == 8
    k2 = lines[3].split(",")
    assert float(k2[1]) == 0.0 and float(k2[2]) == 0.0
    k5 = lines[6].split(",")
    assert float(k5[1]) == 0.0 and float(k5[2]) == 0.0


def test_moments_fresnel_diagonal():
    proc = run_cli("moments", "--r", "2", "--kmax", "0")
    _, re, im = proc.stdout.splitlines()[1].split(",")
    assert float(re) == pytest.approx(float(im), rel=1e-15)
    assert float(re) == pytest.approx((3.141592653589793 / 2.0) ** 0.5, rel=1e-12)


def test_moments_byte_deterministic():
    a = run_cli("moments", "--kmax", "8")
    b = run_cli("moments", "--kmax", "8")
    assert a.stdout == b.stdout


def test_opq_rule_reflection_closure():
    proc = run_cli("opq", "--n", "10")
    lines = proc.stdout.splitlines()
    assert len(lines) == 11
    nodes = set()
    for row in lines[1:]:
        _, zr, zi, _, _ = row.split(",")
        nodes.add((round(float(zr), 10), round(float(zi), 10)))
    assert nodes == {(-a, b) for a, b in nodes}


def test_curve_endpoints():
    proc = run_cli("curve")
    doc = json.loads(proc.stdout)
    g = doc["curves"]["gamma"]
    first = complex(float(g["points_re"][0]), float(g["points_im"][0]))
    last = complex(float(g["points_re"][-1]), float(g["points_im"][-1]))
    assert abs(first - (-(2.0 ** 0.5) + 1.0j)) <= 1e-12
    assert abs(last - ((2.0 ** 0.5) + 1.0j)) <= 1e-6
    assert {"gamma", "gamma1", "gamma2"} <= set(doc["curves"])


def test_measure_round_trip_mass(tmp_path):
    curve_path = tmp_path / "curve.json"
    run_cli("curve", "--out", str(curve_path))
    proc = run_cli("measure", "--curve-json", str(curve_path))
    lines = proc.stdout.splitlines()
    assert lines[0] == "s,re,im,density,cdf"
    assert abs(float(lines[-1].split(",")[4]) - 1.0) <= 1e-8


def test_measure_resampled_row_count():
    proc = run_cli("measure", "--samples", "33")
    assert len(proc.stdout.splitlines()) == 34


def test_quad_symmetric_constant_matches_oracle():
    proc = run_cli("quad", "--a", "-1", "--b", "1", "--omega", "200",
                   "--r", "3", "--n", "6")
    doc = json.loads(proc.stdout)
    assert abs(float(doc["value_im"])) <= 1e-10
    from oscgauss import oscillatory
    spec = oscillatory.OscillatoryIntegralSpec(
        a=-1.0, b=1.0, omega=200.0, r=3,
        amplitude=oscillatory.amplitude("constant"))
    exact, _est = oscillatory.interval_oracle(spec)
    assert abs(float(doc["value_re"]) - float(mp.re(exact))) <= 1e-8
    parts = doc["contributions"]
    total = sum(complex(float(parts[k]["re"]), float(parts[k]["im"]))
                for k in ("endpoint_a", "endpoint_b", "stationary"))
    got = complex(float(doc["value_re"]), float(doc["value_im"]))
    assert abs(total - got) <= 1e-12


def test_fields_grid_shape():
    # '=' form: a value starting with '-' would otherwise read as a flag
    proc = run_cli("fields", "--which", "ReQ", "--grid=-1,1,5,-1,1,4")
    doc = json.loads(proc.stdout)
    assert len(doc["x"]) == 5 and len(doc["y"]) == 4
    assert len(doc["values"]) == 4 and len(doc["values"][0]) == 5
    assert doc["masked"][0][0] is False


def test_verify_curve_suite_passes_and_is_deterministic(tmp_path, capsys):
    a = run_cli("verify", "--suite", "curve")
    doc = json.loads(a.stdout)
    assert doc["passed"] is True
    assert "elapsed_seconds" not in a.stdout
    b = run_cli("verify", "--suite", "curve")
    assert a.stdout == b.stdout
    # config keys the subcommand has no flag for are ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "verify", "kmax": 2}))
    assert run_main(capsys, "verify", "--suite", "curve",
                    "--config", str(cfg)) == (0, a.stdout, "")


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 4}))
    via_config = run_cli("moments", "--config", str(cfg))
    assert len(via_config.stdout.splitlines()) == 6
    via_flag = run_cli("moments", "--config", str(cfg), "--kmax", "2")
    assert len(via_flag.stdout.splitlines()) == 4
    # a config value converts like the flag's own: "4" and 4.0 are --kmax 4
    for entry in ({"kmax": "4"}, {"kmax": 4.0}):
        cfg.write_text(json.dumps(entry))
        assert run_main(capsys, "moments", "--config", str(cfg)) \
            == (0, via_config.stdout, ""), entry
    # a dashed key names the same flag as its underscored dest
    cfg.write_text(json.dumps({"step-tolerance": 1e-6}))
    _, curve, _ = run_main(capsys, "curve", "--config", str(cfg))
    assert curve == run_main(capsys, "curve", "--step-tolerance", "1e-6")[1]
    assert curve != run_main(capsys, "curve")[1]


def test_out_writes_file(tmp_path):
    out = tmp_path / "m.csv"
    proc = run_cli("moments", "--kmax", "3", "--out", str(out))
    assert proc.stdout == ""
    assert out.read_text().splitlines()[0] == "k,re,im"


def test_exit_code_io_failure():
    proc = run_cli("moments", "--out", "/no-such-dir/x/y.csv", check=False)
    assert proc.returncode == 4


def test_exit_code_construction_failure(tmp_path, capsys):
    proc = run_cli("opq", check=False)
    assert proc.returncode == 3
    proc = run_cli("moments", "--precision", "10", check=False)
    assert proc.returncode == 3
    # malformed input is one stderr line and exit 3, never a traceback
    files = {"empty": {}, "list": [1, 2], "ragged": [[1, 2], [3]]}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    # 1e400 parses as an infinite float, which no integer flag can take
    (tmp_path / "huge.json").write_text('{"kmax": 1e400}')
    for argv in (("curve", "--precision", "10"),
                 ("measure", "--curve-json", str(tmp_path / "empty.json")),
                 ("measure", "--curve-json", str(tmp_path / "list.json")),
                 ("asymp", "--probes", str(tmp_path / "ragged.json")),
                 ("fields", "--grid=-1,1,0,-1,1,3"),
                 ("quad", "--amplitude-params", "[1]"),
                 ("quad", "--amplitude", "exp", "--amplitude-params", '{"skale": 5}'),
                 ("moments", "--config", str(tmp_path / "huge.json"))):
        code, _, err = run_main(capsys, *argv)
        assert code == 3 and len(err.splitlines()) == 1, (argv, err)


def test_exit_code_explicit_zero_is_not_replaced_by_default():
    # only an unset count takes the default; 0 reaches the library and fails
    for argv in (("quad", "--n", "0"), ("quad", "--n-endpoint", "0"),
                 ("asymp", "--n", "0")):
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 3, (argv, proc.stdout)
        assert "n must be >= 1" in proc.stderr


def test_exit_code_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("moments", "--config", str(bad), check=False)
    assert proc.returncode == 4
    proc = run_cli("moments", "--config", str(tmp_path / "missing.json"),
                   check=False)
    assert proc.returncode == 4
