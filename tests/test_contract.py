"""The behavioural contract: table rows and certificates against ``data/contract.json``.

``data/make_contract.py`` wrote the file and computes the same quantities
here. IT, the ``%.4e`` RES text, ``converged``, the inner iteration counts
and the verdicts must match exactly; lhs and rhs match to 1e-6 relative,
the accuracy of the certificate norm estimates.
"""

import importlib.util
import json
import math
import pathlib

import pytest

DATA = pathlib.Path(__file__).resolve().parent / "data"
_SPEC = importlib.util.spec_from_file_location("make_contract", DATA / "make_contract.py")
make_contract = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_contract)

CONTRACT = json.loads((DATA / "contract.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("spec_name", make_contract.TABLE_SPECS)
def test_table_rows_match_the_contract(spec_name):
    expected = [row for row in CONTRACT["rows"] if row["spec"] == spec_name]
    assert len(expected) == 12
    for want, got in zip(expected, make_contract.table_rows(spec_name), strict=True):
        assert got == want, f"{spec_name}: {want['method']} at m = {want['m']} changed"


def test_certificates_match_the_contract():
    expected = CONTRACT["certificates"]
    for want, got in zip(expected, make_contract.certificates(), strict=True):
        where = f"{want['set']}: {want['condition']}"
        assert (got["set"], got["condition"], got["verdict"]) == (
            want["set"], want["condition"], want["verdict"]), where
        for side in ("lhs", "rhs"):
            assert math.isclose(got[side], want[side], rel_tol=1e-6), f"{where} {side}"
    # the n = 600 set is the one that holds
    assert expected[-1]["verdict"] == "true"
