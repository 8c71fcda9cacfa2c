"""Deterministic result persistence: atomic CSV and JSON writers.

Numbers are written with 17 significant digits and a '.' decimal separator
so doubles round-trip exactly and identical configurations reproduce
byte-identical payloads; every write goes through a temp-file rename so
interrupted runs never leave truncated files.
"""

import json
import os
import tempfile
from functools import lru_cache

import numpy as np

__all__ = ["fmt", "atomic_write_text", "write_csv", "write_json",
           "torsion_field_to_files"]


def fmt(x):
    """Format one value for CSV: full-precision floats, plain ints/strings.

    Floats are tested first: np.float64 is a float, and payload rows are
    mostly floats.  ``"%.17g" % x`` gives the bytes of ``format(float(x),
    ".17g")``.
    """
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def atomic_write_text(path, text):
    """Write text to ``path`` through a same-directory temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@lru_cache(maxsize=128)
def _row_template(kinds):
    """One ``%`` template giving, for cells of these types, the bytes of fmt."""
    def spec(kind):
        if issubclass(kind, (float, np.floating)):
            return "%.17g"
        if issubclass(kind, (bool, np.bool_, int, np.integer)):
            return "%d"
        return "%s"
    return ",".join(map(spec, kinds))


def _quoted(cell):
    """A cell as ``csv.writer`` writes it under ``QUOTE_MINIMAL``."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(path, header, rows):
    """Write header and rows; a row, formatted by one ``%``, is the bytes of
    ``",".join(map(fmt, row))``, except that a text cell holding ``,``,
    ``"`` or a line break is quoted as ``csv.writer`` quotes it."""
    rows = [tuple(row) for row in rows]
    # the key is built from a list: tuple(map(...)) allocates it oversized
    # and shrinks it, so CPython's tuple free list keeps every freed key
    lines = [",".join(header)] + [_row_template(tuple([type(x) for x in row])) % row
                                  for row in rows]
    text = "\n".join(lines) + "\n"
    # a number never holds a comma, a quote or a line break, so the file
    # holds exactly its separators unless a text cell needs quotes
    separators = len(header) - 1 + sum(map(len, rows)) - len(rows)
    if (text.count(",") != separators or text.count("\n") != len(lines)
            or '"' in text or "\r" in text):
        text = "\n".join([lines[0]] + [",".join([_quoted(fmt(x)) for x in row])
                                        for row in rows]) + "\n"
    atomic_write_text(path, text)


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def torsion_field_to_files(fld, stem):
    """Persist a solved field: JSON header plus CSV blocks for u and flux."""
    write_json(stem + ".json", {
        "profile": json.loads(fld.profile.to_json()),
        "resolution": list(fld.meta.get("resolution", fld.u.shape)),
        "residual": fld.residual,
        "meta": {k: v for k, v in fld.meta.items() if k != "resolution"},
    })
    # rows of Python floats from .tolist(): indexing u cell by cell would
    # make one numpy scalar per cell
    angles = fld.angles.tolist()
    write_csv(stem + "_u.csv", ("t", "angle", "u"),
              [(t, a, u) for t, row in zip(fld.t.tolist(), fld.u.tolist())
               for a, u in zip(angles, row)])
    write_csv(stem + "_trace.csv", ("angle", "H"), zip(angles, fld.neumann.tolist()))
