"""Immutable dataset container, validation, and CSV ingestion.

The interchange format is a UTF-8 CSV with a mandatory header row
``y,t,x1,...,xp`` and one observation per row: an outcome, a binary
treatment indicator, and ``p`` numeric covariates.  A leading byte-order
mark is skipped.  Non-finite values are rejected, never imputed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class CsvSchema:
    """Column naming convention: outcome, treatment, covariate prefix."""

    y: str = "y"
    t: str = "t"
    x_prefix: str = "x"


@dataclass(frozen=True, eq=False)
class ObservationalDataset:
    """One (covariates, treatment, outcome) sample, immutable after construction.

    Attributes:
        x: (n, p) float64 covariate matrix, read-only.
        t: (n,) int8 treatment indicators in {0, 1}, read-only.
        y: (n,) float64 outcomes, read-only.
        n1 / n0: number of treated / control rows.
        binary_outcome: True when every outcome lies in {0, 1}; gates the
            event-count confidence interval.
    """

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    n1: int = field(init=False)
    n0: int = field(init=False)
    binary_outcome: bool = field(init=False)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        t = np.asarray(self.t)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise ValidationError("covariates must form a 2-d matrix")
        if t.ndim != 1 or y.ndim != 1:
            raise ValidationError("t and y must be 1-d vectors")
        n = x.shape[0]
        if n < 1:
            raise ValidationError("dataset needs at least one row")
        if t.shape[0] != n or y.shape[0] != n:
            raise ValidationError(
                f"row mismatch: x has {n} rows, t has {t.shape[0]}, y has {y.shape[0]}"
            )
        if not np.isin(t, (0, 1)).all():
            raise ValidationError("treatment values must all lie in {0, 1}")
        if not np.isfinite(x).all():
            raise ValidationError("covariates contain non-finite values")
        if not np.isfinite(y).all():
            raise ValidationError("outcomes contain non-finite values")
        t = t.astype(np.int8)
        x = x.copy()
        y = y.copy()
        for arr in (x, t, y):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "n1", int(t.sum()))
        object.__setattr__(self, "n0", n - int(t.sum()))
        object.__setattr__(self, "binary_outcome", bool(np.isin(y, (0.0, 1.0)).all()))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class DatasetSummary:
    n: int
    n1: int
    n0: int
    p: int
    y_mean_treated: float | None
    y_mean_control: float | None


def _sorted_mean(values: np.ndarray) -> float | None:
    # summing in sorted order makes the result independent of row order
    if values.size == 0:
        return None
    return float(np.sort(values).sum() / values.size)


def summarize(d: ObservationalDataset) -> DatasetSummary:
    """Counts and arm means; an empty arm reports its mean as None."""
    treated = d.t == 1
    return DatasetSummary(
        n=d.n,
        n1=d.n1,
        n0=d.n0,
        p=d.p,
        y_mean_treated=_sorted_mean(d.y[treated]),
        y_mean_control=_sorted_mean(d.y[~treated]),
    )


def _expected_header(p: int, schema: CsvSchema) -> list[str]:
    return [schema.y, schema.t] + [f"{schema.x_prefix}{j}" for j in range(1, p + 1)]


def _loadtxt_rows(fh, width: int) -> np.ndarray | None:
    """Parse the rest of ``fh`` in one ``np.loadtxt`` call, or return None.

    None means the row loop has to read the file: ``loadtxt`` failed, or its
    result could differ from what the row loop would give.  ``loadtxt`` skips
    blank lines, which the row loop rejects, and strips ``\\x1c``-``\\x1f``
    around a number, which ``float()`` rejects, so lines holding either
    stop the parse; the result must then have one row per line read, and
    only finite values with every treatment in {0, 1}.
    """
    rows = 0

    def lines():
        nonlocal rows
        for line in fh:
            if (
                line.isspace()
                or "\x1c" in line
                or "\x1d" in line
                or "\x1e" in line
                or "\x1f" in line
            ):
                raise ValueError("line the row loop must read")
            rows += 1
            yield line
        if rows == 0:
            raise ValueError("no data rows")  # loadtxt would warn

    try:
        data = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if (
        data.shape != (rows, width)
        or not np.isfinite(data).all()
        or not np.isin(data[:, 1], (0.0, 1.0)).all()
    ):
        return None
    return data


def load_csv(path, schema: CsvSchema = CsvSchema()) -> ObservationalDataset:
    """Read a dataset from ``path``; errors name the offending row and column.

    After the header is checked, all data rows are parsed at once with
    ``np.loadtxt``.  A file that this vectorised parse cannot read exactly
    as the row loop would, including every malformed file, is read again by
    the row loop, which is the one source of error messages.  Rows are
    numbered from 1, counting data rows only (the header is row 0).  A
    leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != schema.y or header[1] != schema.t:
            raise ValidationError(
                f"{path}: header must start with '{schema.y},{schema.t}', got {header[:2]}"
            )
        p = len(header) - 2
        if header != _expected_header(p, schema):
            raise ValidationError(
                f"{path}: covariate columns must be named "
                f"{schema.x_prefix}1..{schema.x_prefix}{p} in order, got {header[2:]}"
            )
        data = _loadtxt_rows(fh, len(header))
        if data is not None:
            return ObservationalDataset(x=data[:, 2:], t=data[:, 1], y=data[:, 0])
        fh.seek(0)
        next(reader)  # the header, checked above
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
                    f"{path}: row {i}, column {schema.t}: treatment must be 0 or 1, got {row[1]!r}"
                )
            y_rows.append(vals[0])
            t_rows.append(int(vals[1]))
            x_rows.append(vals[2:])
    if not y_rows:
        raise ValidationError(f"{path}: no data rows")
    x = np.asarray(x_rows, dtype=np.float64).reshape(len(y_rows), p)
    return ObservationalDataset(x=x, t=np.asarray(t_rows), y=np.asarray(y_rows))


def write_csv(d: ObservationalDataset, path, schema: CsvSchema = CsvSchema()) -> None:
    """Write ``d`` to ``path``; floats use shortest round-trip formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(d.p, schema))
        writer.writerows(
            [repr(y), t, *map(repr, x)]
            for y, t, x in zip(d.y.tolist(), d.t.tolist(), d.x.tolist())
        )
