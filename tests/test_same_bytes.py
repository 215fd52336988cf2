import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
_SPEC = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)


@pytest.mark.parametrize("a, b, report", [
    (b"k,f\n0,1.5\n1,-2.25\n", b"k,f\n0,1.5\n1,-2.2500000000000004\n", "largest |diff| 4.4e-16"),
    (b"k,f\n0,1\n1,2\n", b"k,f\n0,1.5\n1,2.125\n", "largest |diff| 0.5"),
    (b"k,f\n0,1\n", b"k,f\n0,1\n1,2\n", "other rows or columns"),
    (b"k,f\n0,inf\n", b"k,f\n0,1\n", "a non-finite field differs"),
    (b"k,method\n0,alg1\n", b"k,method\n0,alg2\n", "a text field differs"),
], ids=["rounding level", "numbers", "rows", "non-finite", "text"])
def test_a_differing_csv_reports_its_largest_numeric_difference(a, b, report):
    assert same_bytes._largest_change(a, b) == report


def test_only_csv_files_present_on_both_sides_carry_a_report():
    a = {"exit code": 0, "stdout": b"x", "stderr": b"",
         "files": {"out.csv": b"f\n1\n", "out.meta.txt": b"a", "old.csv": b"f\n1\n"}}
    b = {"exit code": 0, "stdout": b"y", "stderr": b"",
         "files": {"out.csv": b"f\n1.25\n", "out.meta.txt": b"b"}}
    assert same_bytes._differences(a, b) == [
        "stdout", "file old.csv", "file out.csv (largest |diff| 0.25)", "file out.meta.txt"]
