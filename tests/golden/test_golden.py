"""CLI artifacts checked byte for byte against committed golden files.

Each case runs `cli.main` in-process and compares stdout with the file of
the same name in this directory; a verify case prints the session's one
run of its suite (the `suite_run` fixture), which the acceptance gate also
judges.  Artifacts too large to commit are pinned by the SHA-256 of their
stdout instead.  A change that alters one of these is an artifact
change and has to be declared as such.
"""

import hashlib
from pathlib import Path

import pytest

from oscgauss import cli, verify

GOLDEN = Path(__file__).parent

CASES = {
    "moments_r3.csv": ["moments", "--r", "3"],
    "opq_n7_r2.csv": ["opq", "--n", "7", "--r", "2"],
    "opq_n9_r5.csv": ["opq", "--n", "9", "--r", "5"],
    "opq_n12_r3_rescaled.csv": ["opq", "--n", "12", "--r", "3", "--rescaled"],
    "quad_omega200_exp.json": ["quad", "--omega", "200", "--amplitude", "exp"],
    "measure_samples50.csv": ["measure", "--samples", "50"],
    "fields_RePhi2_21x21.json": ["fields", "--which", "RePhi2", "--grid=-3,3,21,-3,3,21"],
    # two cells of this grid are masked as cut-adjacent
    "fields_ReD_61x41.json": ["fields", "--which", "ReD", "--grid=-2,1.5,61,-1,1.7,41"],
    "asymp_n20.json": ["asymp", "--n", "20"],
    "verify_curve.json": ["verify", "--suite", "curve"],
    "verify_measure.json": ["verify", "--suite", "measure"],
    "verify_zeros.json": ["verify", "--suite", "zeros"],
    "verify_asymp.json": ["verify", "--suite", "asymp"],
    "verify_order.json": ["verify", "--suite", "order"],
    "verify_consistency.json": ["verify", "--suite", "consistency"],
}

DIGESTS = {
    # the three contour polylines, 415 KB of JSON
    "curve": (["curve"], "0c6e938b81152e944e54e51306ed933b1ec36603edf54243515c62e42e27ad1c"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, capsys, monkeypatch, suite_run):
    if CASES[name][0] == "verify":
        # the CLI prints the session's one run of the suite (see conftest)
        monkeypatch.setattr(verify, "run_suite", lambda names: suite_run(*names))
    assert cli.main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_matches_golden_digest(name, capsys):
    argv, digest = DIGESTS[name]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
