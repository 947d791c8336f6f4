"""Reference specifications of CSV ingestion and export.

``load_csv_oracle`` is ``riskratio.data.load_csv`` as it was before the data
rows were parsed by one ``np.loadtxt`` call, kept verbatim as a test oracle.
The current ``load_csv`` must accept exactly the files this accepts, with
equal arrays, and reject exactly the files this rejects, with the same
message.

``write_csv_oracle`` is ``riskratio.data.write_csv`` as it was before rows
were formatted in blocks: one ``csv.writer`` row per observation, from
``tolist()`` of the whole arrays.  The current ``write_csv`` must write the
same bytes.
"""

import csv

import numpy as np

from riskratio.data import ObservationalDataset, _expected_header
from riskratio.errors import ValidationError


def load_csv_oracle(path) -> ObservationalDataset:
    """Read a dataset from ``path``; errors name the offending row and column.

    Rows are numbered from 1, counting data rows only (the header is row 0).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "y" or header[1] != "t":
            raise ValidationError(f"{path}: header must start with 'y,t', got {header[:2]}")
        p = len(header) - 2
        if header != _expected_header(p):
            raise ValidationError(
                f"{path}: covariate columns must be named x1..x{p} in order, got {header[2:]}"
            )
        y_rows: list[float] = []
        t_rows: list[int] = []
        x_rows: list[list[float]] = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                )
            vals = []
            for name, cell in zip(header, row):
                try:
                    v = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: row {i}, column {name}: cannot parse {cell!r}"
                    ) from None
                if not np.isfinite(v):
                    raise ValidationError(
                        f"{path}: row {i}, column {name}: non-finite value {cell!r}"
                    )
                vals.append(v)
            if vals[1] not in (0.0, 1.0):
                raise ValidationError(
                    f"{path}: row {i}, column t: treatment must be 0 or 1, got {row[1]!r}"
                )
            y_rows.append(vals[0])
            t_rows.append(int(vals[1]))
            x_rows.append(vals[2:])
    if not y_rows:
        raise ValidationError(f"{path}: no data rows")
    x = np.asarray(x_rows, dtype=np.float64).reshape(len(y_rows), p)
    return ObservationalDataset(x=x, t=np.asarray(t_rows), y=np.asarray(y_rows))


def write_csv_oracle(d: ObservationalDataset, path) -> None:
    """Write ``d`` to ``path``; floats use shortest round-trip formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(d.p))
        writer.writerows(
            [repr(y), t, *map(repr, x)]
            for y, t, x in zip(d.y.tolist(), d.t.tolist(), d.x.tolist())
        )
