"""CLI artifacts checked byte for byte against committed golden files.

Each case runs `cli.main` in-process and compares stdout with the file of
the same name in this directory.  A change that alters one of these files
is an artifact change and has to be declared as such.
"""

from pathlib import Path

import pytest

from oscgauss import cli

GOLDEN = Path(__file__).parent

CASES = {
    "moments_r3.csv": ["moments", "--r", "3"],
    "opq_n7_r2.csv": ["opq", "--n", "7", "--r", "2"],
    "opq_n9_r5.csv": ["opq", "--n", "9", "--r", "5"],
    "opq_n12_r3_rescaled.csv": ["opq", "--n", "12", "--r", "3", "--rescaled"],
    "quad_omega200_exp.json": ["quad", "--omega", "200", "--amplitude", "exp"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, capsys):
    assert cli.main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
