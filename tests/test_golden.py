"""Sweep CSVs against copies recorded before the refactors they guard.

``golden/<name>.csv`` holds the output of ``rydchain sweep <CASES[name]>``
from the commit that introduced the file.  Text and integer fields must
match exactly, floats to 1e-12.
"""

from pathlib import Path

import pytest

from rydchain import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "transport_aniso_nn": "--protocol transport --n 2,3,4,5,6 --grid 4:16:4 --disorder aniso"
    " --range nn --realizations 100 --seed 11",
    "ghz3_iso": "--protocol ghz3 --n 2,3,4,5 --grid 4:16:4 --disorder iso --realizations 25 --seed 11",
    "mps_R2_iso": "--protocol mps --R 2 --n 3,4,5,6 --grid 10:30:3 --disorder iso"
    " --realizations 25 --seed 11",
    "ghz2_none": "--protocol ghz2 --n 2,4,6,8 --grid 2:30:8 --disorder none --realizations 10 --seed 11",
    # the widest pulses at N = 14 (two levels) and N = 9 (three) drive more
    # than COEF_CHUNK blocks
    "ghz2_wide_aniso": "--protocol ghz2 --n 13,14 --grid 6.9,15.5 --disorder aniso --realizations 4 --seed 11",
    "ghz3_wide_iso": "--protocol ghz3 --n 8,9 --grid 6.9,15.5 --disorder iso --realizations 4 --seed 11",
}

FLOAT_COLUMNS = {"v0_over_omega", "mean_fidelity", "std_error", "min", "max"}


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_recorded_csv(name, tmp_path):
    out = tmp_path / name
    assert cli.main(["sweep", *CASES[name].split(), "--workers", "1", "--out", str(out)]) == 0
    header, rows = read_table(out.with_suffix(".csv"))
    want_header, want_rows = read_table(GOLDEN / f"{name}.csv")
    assert header == want_header
    assert len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        for column, got, expected in zip(header, row, want):
            if column in FLOAT_COLUMNS:
                assert abs(float(got) - float(expected)) <= 1e-12, (column, row, want)
            else:
                assert got == expected, (column, row, want)
