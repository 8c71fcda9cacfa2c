import csv
from io import StringIO

import numpy as np
import pytest

from serrin.geometry import Axis, BoundaryProfile
from serrin.io import fmt, torsion_field_to_files, write_csv
from serrin.torsion import TorsionField


FMT_CASES = [
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (0.1, "0.10000000000000001"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.float32(0.1), "0.10000000149011612"),
    (True, "1"),
    (np.True_, "1"),
    (3, "3"),
    (np.int64(3), "3"),
    ("xi", "xi"),
]


@pytest.mark.parametrize("value,expected", FMT_CASES)
def test_fmt(value, expected):
    assert fmt(value) == expected


def test_write_csv_rows(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(str(path), ("axis", "n", "value"), [("xi", np.int64(2), np.float64(0.1))])
    assert path.read_bytes() == b"axis,n,value\nxi,2,0.10000000000000001\n"


def _written(row):
    """The line ``csv.writer`` writes for the fmt of each cell: the bytes'
    oracle.  Under its default line terminator it quotes a cell only when
    the cell holds a comma, a quote, a carriage return or a newline."""
    buf = StringIO()
    csv.writer(buf).writerow([fmt(x) for x in row])
    return buf.getvalue().removesuffix("\r\n")


def test_write_csv_rows_are_the_bytes_of_fmt(tmp_path):
    # fmt defines the bytes; write_csv formats a whole row in one operation
    # and quotes the text cells csv.writer would quote
    sweep_row = ("xi", 2, 0.1, -0.0, float("nan"))
    rows = [(value,) for value, _ in FMT_CASES] + [
        sweep_row,
        ("eta", 24, float("inf"), float("-inf"), 5e-324),
        ("xi", np.int64(3), np.float64(1.2), 7, True),      # int and bool in float columns
        ("xi", 3, np.float32(0.1), np.True_, np.float64(-0.0)),
        sweep_row,                                           # a row shape seen before
        ("xi", "n/a", "%s", "1,5", ""),                      # str in every column
        ('say "hi"', 0.5, "two\nlines", "cr\r", 2),          # quotes and line breaks
        ("1,5", 0.5, "", "plain", ","),
    ]
    path = tmp_path / "rows.csv"
    for row in rows:
        write_csv(str(path), ("a",) * len(row), [row])
        expected = ",".join(("a",) * len(row)) + "\n" + _written(row) + "\n"
        assert path.read_bytes() == expected.encode(), row
        with open(path, newline="") as handle:
            assert list(csv.reader(handle))[1] == [fmt(x) for x in row]
    write_csv(str(path), ("a", "b", "c", "d", "e"), [r for r in rows if len(r) == 5])
    expected = ["a,b,c,d,e"] + [_written(r) for r in rows if len(r) == 5]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_torsion_field_files_are_the_bytes_of_fmt(tmp_path):
    # the rows come from .tolist() columns; the reference formats the
    # numpy scalars of a cell-by-cell walk with fmt
    rng = np.random.default_rng(5)
    t, angles = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
    u = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-300, 300, (5, 7))
    u[0, :3] = -0.0, np.nan, np.inf
    fld = TorsionField(BoundaryProfile.constant(Axis.XI, 0.8), t, angles, u,
                       rng.standard_normal(7), 1e-13, {"resolution": (5, 7)})
    stem = str(tmp_path / "field")
    torsion_field_to_files(fld, stem)
    cells = [(t[i], angles[k], u[i, k]) for i in range(5) for k in range(7)]
    expected = ["t,angle,u"] + [",".join(map(fmt, cell)) for cell in cells]
    assert (tmp_path / "field_u.csv").read_text() == "\n".join(expected) + "\n"
    expected = ["angle,H"] + [",".join(map(fmt, pair)) for pair in zip(angles, fld.neumann)]
    assert (tmp_path / "field_trace.csv").read_text() == "\n".join(expected) + "\n"
