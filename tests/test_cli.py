"""End-to-end command-line checks.

Cases that only read stdout or an --out file call `cli.main` in-process,
which skips the interpreter start of a subprocess.  Subprocesses of the
`-m oscgauss.cli` entry module are kept for what only a fresh interpreter
shows: that the entry point runs, exit codes with a traceback-free
stderr, and byte-determinism across two processes.
"""

import json
import subprocess
import sys

import mpmath as mp
import pytest

from oscgauss import cli
from oscgauss.precision import PrecisionContext

CLI = [sys.executable, "-m", "oscgauss.cli"]


def run_cli(*argv, check=True):
    proc = subprocess.run(CLI + list(argv), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc


def run_failing(*argv):
    """A subprocess run that must fail with one traceback-free stderr line."""
    proc = run_cli(*argv, check=False)
    assert proc.returncode != 0 and len(proc.stderr.splitlines()) == 1, (argv, proc.stderr)
    assert "Traceback" not in proc.stderr
    return proc


def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def stdout_of(capsys, *argv):
    """stdout of `cli.main(argv)` in this process, which must exit 0."""
    code, out, err = run_main(capsys, *argv)
    assert code == 0, (argv, code, err)
    return out


@pytest.mark.parametrize("argv", [("opq", "--n", "7", "--r", "2"), ("quad",),
                                  ("moments", "--r", "3", "--kmax", "10")], ids=lambda a: a[0])
def test_rule_commands_start_without_numpy(argv):
    # opq, quad and moments import neither numpy nor the layers that need it
    proc = subprocess.run([sys.executable, "-c", "import sys\nfrom oscgauss import cli\n"
                           "code = cli.main(sys.argv[1:])\nprint('numpy' in sys.modules)\n"
                           "sys.exit(code)", *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_bad_suite_is_an_argparse_choice_error(capsys):
    # the --suite choices come from verify only when they are checked
    from oscgauss import verify
    code, _, err = run_main(capsys, "verify", "--suite", "nope")
    choices = ", ".join(repr(n) for n in ("all", *verify.SUITE_NAMES))
    assert code == 3
    assert err == f"oscgauss: ValueError: argument --suite: invalid choice: 'nope' (choose from {choices})\n"


def test_moments_rows_and_structural_zero(capsys):
    lines = stdout_of(capsys, "moments", "--kmax", "6").splitlines()
    assert lines[0] == "k,re,im"
    assert len(lines) == 8
    k2 = lines[3].split(",")
    assert float(k2[1]) == 0.0 and float(k2[2]) == 0.0
    k5 = lines[6].split(",")
    assert float(k5[1]) == 0.0 and float(k5[2]) == 0.0


def test_moments_fresnel_diagonal(capsys):
    _, re, im = stdout_of(capsys, "moments", "--r", "2", "--kmax", "0").splitlines()[1].split(",")
    assert float(re) == pytest.approx(float(im), rel=1e-15)
    assert float(re) == pytest.approx((3.141592653589793 / 2.0) ** 0.5, rel=1e-12)


def test_moments_byte_deterministic(capsys):
    # two processes through the -m oscgauss.cli entry point, and this one
    a = run_cli("moments", "--kmax", "8")
    b = run_cli("moments", "--kmax", "8")
    assert a.stdout == b.stdout
    assert stdout_of(capsys, "moments", "--kmax", "8") == a.stdout


def test_opq_rule_reflection_closure(capsys):
    lines = stdout_of(capsys, "opq", "--n", "10").splitlines()
    assert len(lines) == 11
    nodes = set()
    for row in lines[1:]:
        _, zr, zi, _, _ = row.split(",")
        nodes.add((round(float(zr), 10), round(float(zi), 10)))
    assert nodes == {(-a, b) for a, b in nodes}


def test_curve_endpoints(capsys):
    doc = json.loads(stdout_of(capsys, "curve"))
    g = doc["curves"]["gamma"]
    first = complex(float(g["points_re"][0]), float(g["points_im"][0]))
    last = complex(float(g["points_re"][-1]), float(g["points_im"][-1]))
    assert abs(first - (-(2.0 ** 0.5) + 1.0j)) <= 1e-12
    assert abs(last - ((2.0 ** 0.5) + 1.0j)) <= 1e-6
    assert {"gamma", "gamma1", "gamma2"} <= set(doc["curves"])


def test_measure_round_trip_mass(capsys):
    # the full table of the memoised gamma: a row per vertex, mass 0 to 1
    lines = stdout_of(capsys, "measure").splitlines()
    assert lines[0] == "s,re,im,density,cdf"
    assert len(lines) == 1 + 1592
    assert abs(float(lines[-1].split(",")[4]) - 1.0) <= 1e-10


def test_measure_resampled_row_count(capsys):
    assert len(stdout_of(capsys, "measure", "--samples", "33").splitlines()) == 34


def test_asymp_at_the_branch_points(tmp_path, capsys):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps([[2.0 ** 0.5, 1.0], [-(2.0 ** 0.5), 1.0]]))
    rows = json.loads(stdout_of(capsys, "asymp", "--probes", str(probes)))["probes"]
    assert [row["region"] for row in rows] == ["disk2", "disk1"]
    assert all(float(row["relative_error"]) < 1e-3 for row in rows)


def test_quad_symmetric_constant_matches_oracle(capsys):
    doc = json.loads(stdout_of(capsys, "quad", "--a", "-1", "--b", "1", "--omega", "200",
                               "--r", "3", "--n", "6"))
    assert abs(float(doc["value_im"])) <= 1e-10
    from oscgauss import oscillatory
    spec = oscillatory.OscillatoryIntegralSpec(
        a=-1.0, b=1.0, omega=200.0, r=3,
        amplitude=oscillatory.amplitude("constant"))
    ((exact, _est),) = oscillatory.interval_oracle([spec], PrecisionContext())
    assert abs(float(doc["value_re"]) - float(mp.re(exact))) <= 1e-8
    parts = doc["contributions"]
    total = sum(complex(float(parts[k]["re"]), float(parts[k]["im"]))
                for k in ("endpoint_a", "endpoint_b", "stationary"))
    got = complex(float(doc["value_re"]), float(doc["value_im"]))
    assert abs(total - got) <= 1e-12


def test_fields_grid_shape(capsys):
    # '=' form: a value starting with '-' would otherwise read as a flag
    doc = json.loads(stdout_of(capsys, "fields", "--which", "ReQ", "--grid=-1,1,5,-1,1,4"))
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


def test_strip_timing_drops_exactly_the_elapsed_seconds_keys():
    checks = {"runtime": {"elapsed_seconds": 0.5, "ok": True, "bound": 10.0},
              "case_runtime_n2_r3": {"elapsed_seconds": 0.2, "ok": True, "bound": 120.0},
              # a check that is no timing keeps its value, whatever its label
              "runtime_ratio": {"value": 0.3, "ok": True, "bound": 1.0},
              "listed": {"value": [1.0, {"elapsed_seconds": 2.0, "n": 3}], "ok": True}}
    report = {"passed": True, "elapsed_seconds": 1.5,
              "suites": {"s": {"elapsed_seconds": 0.5, "checks": checks}}}
    assert cli._strip_timing(report) == {"passed": True, "suites": {"s": {"checks": {
        "runtime": {"ok": True, "bound": 10.0},
        "case_runtime_n2_r3": {"ok": True, "bound": 120.0},
        "runtime_ratio": {"value": 0.3, "ok": True, "bound": 1.0},
        "listed": {"value": [1.0, {"n": 3}], "ok": True}}}}}


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 4}))
    via_config = stdout_of(capsys, "moments", "--config", str(cfg))
    assert len(via_config.splitlines()) == 6
    via_flag = stdout_of(capsys, "moments", "--config", str(cfg), "--kmax", "2")
    assert len(via_flag.splitlines()) == 4
    # a config value converts like the flag's own: "4" and 4.0 are --kmax 4
    for entry in ({"kmax": "4"}, {"kmax": 4.0}):
        cfg.write_text(json.dumps(entry))
        assert run_main(capsys, "moments", "--config", str(cfg)) \
            == (0, via_config, ""), entry
    # a dashed key names the same flag as its underscored dest
    argv = ("quad", "--omega", "200", "--n", "2")
    cfg.write_text(json.dumps({"n-stationary": 3}))
    _, quad, _ = run_main(capsys, *argv, "--config", str(cfg))
    assert quad == run_main(capsys, *argv, "--n-stationary", "3")[1]
    assert quad != run_main(capsys, *argv)[1]


def test_out_writes_file(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert stdout_of(capsys, "moments", "--kmax", "3", "--out", str(out)) == ""
    assert out.read_text().splitlines()[0] == "k,re,im"


def test_exit_code_io_failure():
    proc = run_failing("moments", "--out", "/no-such-dir/x/y.csv")
    assert proc.returncode == 4


def test_exit_code_construction_failure(tmp_path, capsys):
    proc = run_failing("opq")
    assert proc.returncode == 3
    proc = run_failing("moments", "--precision", "10")
    assert proc.returncode == 3
    # values past the float range refuse in one line, with no numpy warning
    (tmp_path / "far.json").write_text("[[50, 50]]")
    for argv in (("asymp", "--n", "200", "--probes", str(tmp_path / "far.json")),
                 ("fields", "--which", "RePhi2", "--grid=-1e200,1e200,3,-1e200,1e200,3"),
                 ("fields", "--which", "ReQ", "--grid=-1e200,1e200,3,-1e200,1e200,3")):
        proc = run_failing(*argv)
        assert proc.returncode == 3 and "NonFiniteError" in proc.stderr, argv
    # malformed input is one stderr line and exit 3, never a traceback
    (tmp_path / "ragged.json").write_text(json.dumps([[1, 2], [3]]))
    # probes are a list of pairs of JSON numbers: not an object's keys, not
    # two-character strings, not booleans, not numeric strings and no integer
    # past the float range
    probe_files = {"object": {"12": 0, "34": 1}, "string": ["12"],
                   "booleans": [[True, False]], "strings": [["1", "2"]],
                   "huge_integer": [[10 ** 400, 0]]}
    for name, doc in probe_files.items():
        (tmp_path / f"probes_{name}.json").write_text(json.dumps(doc))
    # 1e400 parses as an infinite float, which no integer flag can take
    (tmp_path / "huge.json").write_text('{"kmax": 1e400}')
    # a switch takes only a JSON boolean, a valued flag no boolean, and an
    # integer flag no fraction
    configs = {"rescaled_string": {"n": 6, "rescaled": "false"},
               "rescaled_number": {"n": 6, "rescaled": 1},
               "n_fraction": {"n": 3.7}, "kmax_boolean": {"kmax": True},
               "omega_boolean": {"omega": False}}
    for name, doc in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    for argv in (("curve", "--precision", "10"),
                 ("asymp", "--probes", str(tmp_path / "ragged.json")),
                 *(("asymp", "--probes", str(tmp_path / f"probes_{name}.json"))
                   for name in probe_files),
                 ("fields", "--grid=-1,1,0,-1,1,3"),
                 ("quad", "--amplitude-params", "[1]"),
                 ("quad", "--amplitude", "exp", "--amplitude-params", '{"skale": 5}'),
                 # amplitude values that are not finite numbers, refused
                 # before any rule is built
                 ("quad", "--amplitude", "polynomial", "--amplitude-params", '{"coeffs": 5}'),
                 ("quad", "--amplitude", "polynomial",
                  "--amplitude-params", '{"coeffs": "abc"}'),
                 ("quad", "--amplitude-params", '{"value": [1, 2]}'),
                 ("quad", "--amplitude-params", '{"value": "x"}'),
                 ("quad", "--amplitude", "exp", "--amplitude-params", '{"scale": null}'),
                 ("quad", "--amplitude", "monomial", "--amplitude-params", '{"k": 1.5}'),
                 ("quad", "--amplitude", "monomial", "--amplitude-params", '{"k": true}'),
                 ("moments", "--config", str(tmp_path / "huge.json")),
                 ("opq", "--config", str(tmp_path / "rescaled_string.json")),
                 ("opq", "--config", str(tmp_path / "rescaled_number.json")),
                 ("opq", "--config", str(tmp_path / "n_fraction.json")),
                 ("moments", "--config", str(tmp_path / "kmax_boolean.json")),
                 ("quad", "--config", str(tmp_path / "omega_boolean.json")),
                 # non-finite integral bounds, refused before any rule is built
                 ("quad", "--omega", "nan"),
                 ("quad", "--omega", "inf"),
                 ("quad", "--b", "inf"),
                 # --precision is a flag of moments, opq and quad only
                 ("measure", "--samples", "2", "--precision", "40"),
                 ("fields", "--grid=-1,1,2,-1,1,2", "--precision", "40"),
                 # below 30 digits, though the opq schedule never goes below 60
                 ("opq", "--n", "3", "--precision", "10"),
                 # counts below their minimum
                 ("moments", "--kmax", "-1"),
                 ("measure", "--samples", "0"),
                 ("measure", "--samples", "1"),
                 ("opq", "--n", "0"),
                 # a non-finite grid bound
                 ("fields", "--which", "RePhi2", "--grid", "nan,1,2,0,1,2"),
                 ("fields", "--grid=-1,inf,2,-1,1,2"),
                 # usage errors: a malformed value and an unknown flag
                 ("moments", "--kmax", "abc"),
                 ("moments", "--no-such-flag"),
                 # measure reads only the memoised contour, never a curve file
                 ("measure", "--curve-json", "x.json")):
        code, out, err = run_main(capsys, *argv)
        assert code == 3 and len(err.splitlines()) == 1, (argv, err)
        assert out == "", argv
    assert "n must be >= 1" in run_main(capsys, "opq", "--n", "0")[2]
    assert "omega must be finite" in run_main(capsys, "quad", "--omega", "nan")[2]
    assert "expected an integer" in run_main(
        capsys, "opq", "--config", str(tmp_path / "n_fraction.json"))[2]
    # help is not a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["moments", "-h"])
    assert exc.value.code == 0


def test_exit_code_explicit_zero_is_not_replaced_by_default():
    # only an unset count takes the default; 0 reaches the library and fails
    for argv in (("quad", "--n", "0"), ("quad", "--n-endpoint", "0"),
                 ("asymp", "--n", "0"), ("asymp", "--n", "-3")):
        proc = run_failing(*argv)
        assert proc.returncode == 3, (argv, proc.stdout)
        assert "n must be >= 1" in proc.stderr


def test_exit_code_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_failing("moments", "--config", str(bad))
    assert proc.returncode == 4
    proc = run_failing("moments", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 4
