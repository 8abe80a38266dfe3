"""Bit-level fingerprint of every figure column and every table 2.1 cell.

Each column of figures 1-8 on the paper's grid, half_pi_grid(1000, 50),
and each computed cell of table 2.1 is hashed over the exact bits of its
values: sha256 of one line "sign mantissa exponent" per value.  The hashes
in fingerprint.json were captured before the figure evaluation was shared
across curves, so a refactor of the evaluation path that changes any bit of
any value fails here.

mpmath's gmpy backend rounds some transcendental functions differently, so
the test runs only on its pure-Python backend.  Regenerate the JSON (only
when an output is meant to change) with

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import hashlib
import json
from pathlib import Path

import mpmath.libmp
import pytest

from splinebound.analysis import figure_data, half_pi_grid, reproduce_table

FINGERPRINT = Path(__file__).with_name("fingerprint.json")
FIGURES = [str(i) for i in range(1, 9)]

pytestmark = pytest.mark.skipif(
    mpmath.libmp.BACKEND != "python",
    reason="fingerprints were captured on mpmath's pure-Python backend",
)


def digest(values) -> str:
    lines = []
    for v in values:
        sign, man, exp, _ = v._mpf_
        lines.append(f"{sign} {man} {exp}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def figure_fingerprint(figure_id: str) -> dict:
    columns = figure_data(figure_id, half_pi_grid(1000, 50))["columns"]
    return {name: digest(col) for name, col in columns.items()}


def table_fingerprint() -> dict:
    return {str(row["order"]): digest([row["computed"]]) for row in reproduce_table("2.1")}


def capture() -> dict:
    out = {f"figure:{f}": figure_fingerprint(f) for f in FIGURES}
    out["table:2.1"] = table_fingerprint()
    return out


@pytest.fixture(scope="module")
def expected():
    return json.loads(FINGERPRINT.read_text())


@pytest.mark.parametrize("figure_id", FIGURES)
def test_figure_bits(figure_id, expected):
    assert figure_fingerprint(figure_id) == expected[f"figure:{figure_id}"]


def test_table_2_1_bits(expected):
    assert table_fingerprint() == expected["table:2.1"]


if __name__ == "__main__":
    FINGERPRINT.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
