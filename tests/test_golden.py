"""Default reports of the fast suites, byte for byte.

The files under ``golden/`` hold ``blowring verify <suite> --output json``
(seed 0, timing off). A change that alters a check name, a witness string or
the order of the checks shows here; regenerate a file only when the change
to that report is intended and stated.
"""

from pathlib import Path

import pytest

from blowring.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("suite", ["homology", "heisenberg", "steinberg", "blowup"])
def test_report_bytes_match_golden(capsys, suite):
    code = main(["verify", suite, "--output", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (GOLDEN / f"verify_{suite}.json").read_text()
