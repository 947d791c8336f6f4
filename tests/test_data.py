import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csv_oracle import load_csv_oracle, write_csv_oracle
from helpers import random_dataset
from riskratio import ObservationalDataset, ValidationError, load_csv, write_csv
from riskratio.data import _WRITE_BLOCK_ROWS


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_three_rows(tmp_path):
    path = _write(tmp_path, "y,t,x1\n2.0,1,0.3\n4.0,0,-1.5\n6.0,1,2.25\n")
    d = load_csv(path)
    assert d.n == 3 and d.p == 1
    assert np.array_equal(d.t, [1, 0, 1])
    assert np.array_equal(d.y, [2.0, 4.0, 6.0])


def test_load_csv_bad_treatment_names_row(tmp_path):
    rows = ["1.0,1,0.0"] * 4 + ["1.0,2,0.0", "1.0,0,0.0"]
    path = _write(tmp_path, "y,t,x1\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match="row 5"):
        load_csv(path)


def test_load_csv_nan_outcome_rejected(tmp_path):
    path = _write(tmp_path, "y,t,x1\n1.0,1,0.0\nNaN,0,1.0\n")
    with pytest.raises(ValidationError, match="row 2.*column y"):
        load_csv(path)


def test_load_csv_unparseable_cell_location(tmp_path):
    path = _write(tmp_path, "y,t,x1,x2\n1.0,1,0.0,2.0\n1.0,0,oops,2.0\n")
    with pytest.raises(ValidationError, match="row 2.*column x1"):
        load_csv(path)


def test_load_csv_header_errors(tmp_path):
    with pytest.raises(ValidationError, match="header"):
        load_csv(_write(tmp_path, "outcome,t,x1\n1.0,1,0.0\n"))
    with pytest.raises(ValidationError, match="x1..x2"):
        load_csv(_write(tmp_path, "y,t,x2,x1\n1.0,1,0.0,0.0\n"))


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(ValidationError, match="empty"):
        load_csv(_write(tmp_path, ""))
    with pytest.raises(ValidationError, match="no data rows"):
        load_csv(_write(tmp_path, "y,t,x1\n"))


@pytest.mark.parametrize("body", ["\n", "\r\n\r\n", "  \n", "\n1.0,1,0.0\n"])
def test_load_csv_blank_rows_rejected_without_warning(tmp_path, body):
    path = _write(tmp_path, "y,t,x1\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="row 1 has"):
            load_csv(path)


def test_round_trip_full_precision(tmp_path):
    d = random_dataset(0, n=37, p=3)
    path = tmp_path / "roundtrip.csv"
    write_csv(d, path)
    back = load_csv(path)
    assert np.array_equal(back.x, d.x)
    assert np.array_equal(back.t, d.t)
    assert np.array_equal(back.y, d.y)


def test_dataset_invariants():
    with pytest.raises(ValidationError):
        ObservationalDataset(x=np.zeros((2, 1)), t=np.array([1, 2]), y=np.ones(2))
    with pytest.raises(ValidationError):
        ObservationalDataset(x=np.array([[np.inf], [0.0]]), t=np.array([1, 0]), y=np.ones(2))
    with pytest.raises(ValidationError):
        ObservationalDataset(x=np.zeros((2, 1)), t=np.array([1, 0]), y=np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        ObservationalDataset(x=np.zeros((0, 1)), t=np.array([]), y=np.array([]))
    with pytest.raises(ValidationError):
        ObservationalDataset(x=np.zeros((2, 1)), t=np.array([1, 0, 1]), y=np.ones(2))
    with pytest.raises(ValidationError, match="2-d matrix"):
        ObservationalDataset(x=np.zeros((2, 1, 1)), t=np.array([1, 0]), y=np.ones(2))
    with pytest.raises(ValidationError, match="1-d vectors"):
        ObservationalDataset(x=np.zeros((2, 1)), t=np.array([[1, 0]]), y=np.ones(2))
    with pytest.raises(ValidationError, match="1-d vectors"):
        ObservationalDataset(x=np.zeros((2, 1)), t=np.array([1, 0]), y=np.ones((2, 1)))


def test_dataset_is_immutable():
    d = random_dataset(3)
    with pytest.raises(ValueError):
        d.y[0] = 99.0
    with pytest.raises(ValueError):
        d.x[0, 0] = 99.0


def test_binary_outcome_flag():
    assert random_dataset(4, binary=True).binary_outcome
    assert not random_dataset(4).binary_outcome


def test_load_csv_skips_byte_order_mark(tmp_path):
    d = random_dataset(6, n=25, p=2)
    plain = tmp_path / "plain.csv"
    write_csv(d, plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path in (plain, bom):
        back = load_csv(path)
        assert np.array_equal(back.x, d.x)
        assert np.array_equal(back.t, d.t)
        assert np.array_equal(back.y, d.y)


def test_written_files_take_the_loadtxt_path(tmp_path, monkeypatch):
    import riskratio.data as data

    taken = []
    fast = data._loadtxt_rows

    def spy(fh, width):
        out = fast(fh, width)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(data, "_loadtxt_rows", spy)
    for seed, p in ((7, 0), (8, 3)):
        d = random_dataset(seed, n=40, p=p, binary=seed == 8)
        path = tmp_path / f"d{seed}.csv"
        write_csv(d, path)
        back = load_csv(path)
        assert np.array_equal(back.x, d.x) and np.array_equal(back.y, d.y)
    assert taken == [True, True]


# values whose shortest repr takes each of its forms: signed zero, the
# smallest subnormal, exponent notation at both ends, and integer-valued floats
_EDGE_VALUES = np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1, 3.0, -7.0, 0.0])


def _edge_dataset(n, p):
    """``n`` rows of ``p`` covariates; every other cell cycles through the edge values."""
    g = np.random.default_rng(n * 10 + p)
    cells = g.normal(size=(n, p + 1)) * 10.0 ** g.integers(-8, 17, size=(n, p + 1))
    every_other = cells.ravel()[::2]  # a view, since cells is contiguous
    every_other[:] = np.resize(_EDGE_VALUES, every_other.size)
    return ObservationalDataset(x=cells[:, 1:], t=g.integers(0, 2, size=n), y=cells[:, 0])


@pytest.mark.parametrize("p", [1, 6])
@pytest.mark.parametrize(
    "n", [1, _WRITE_BLOCK_ROWS - 1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1, 2 * _WRITE_BLOCK_ROWS + 1]
)
def test_write_csv_writes_the_bytes_of_one_csv_writer_row_per_observation(tmp_path, n, p):
    d = _edge_dataset(n, p)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(d, got)
    write_csv_oracle(d, want)
    assert got.read_bytes() == want.read_bytes()


def test_write_csv_memory_is_bounded(tmp_path):
    # formatting the whole sample at once peaked at 26 MiB here, row blocks
    # at 0.5 MiB (p = 1 keeps the traced run short)
    d = random_dataset(9, n=200_000, p=1)
    tracemalloc.start()
    try:
        write_csv(d, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# cells that are valid numbers as float() reads them
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["0", "1", "-0", "1.0", ".5", "5.", "1E+05", "+2", "1e-400"]),
)
# cells where float() and np.loadtxt disagree or that the row loop rejects
_ODD_CELLS = [
    "", "#", "#1", "abc", '"1.5"', '"1,5"', '"1\n2"', "1_000", "\u0661\u0662",
    "\u0663.\u0665", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "0x10",
    "2", "0.5", "-1", " 1", "1 ", "\t2\t", "1\x0b", "\x0c1", "\x1c1", "1\x1f",
    "\xa01", "1\u2003", "1\x85", "1\u2028", "1\x00", "1;2",
]
_PADDING = [" ", "\t", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"]


@st.composite
def csv_texts(draw):
    """A CSV text: a valid file with up to three edits that may break it."""
    p = draw(st.integers(0, 3))
    n = draw(st.integers(0, 6))
    rows = [
        [draw(_NUMBERS), draw(st.sampled_from(["0", "1"]))]
        + [draw(_NUMBERS) for _ in range(p)]
        for _ in range(n)
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if len(row) < 2:  # a blank or shortened row: leave it
            continue
        edit = draw(st.sampled_from(["cell", "treatment", "pad", "short", "long", "blank"]))
        j = draw(st.integers(0, len(row) - 1))
        if edit == "cell":
            row[j] = draw(st.sampled_from(_ODD_CELLS))
        elif edit == "treatment":
            row[1] = draw(st.sampled_from(["2", "-0", "1.0", "0.0", "0.5", "-1", "1e0"]))
        elif edit == "pad":
            pad = st.sampled_from(_PADDING)
            row[j] = draw(pad) + row[j] + draw(pad)
        elif edit == "short":
            del row[j]
        elif edit == "long":
            row.insert(j, draw(_NUMBERS))
        else:
            rows.insert(i, [])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(["y", "t"] + [f"x{j}" for j in range(1, p + 1)])]
    lines += [",".join(row) for row in rows]
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


def _outcome(load, path):
    try:
        d = load(path)
    except Exception as exc:  # compare whatever either path raises
        return type(exc), str(exc)
    return d.x, d.t, d.y


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts())
def test_load_csv_matches_row_loop_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(load_csv, path)
    want = _outcome(load_csv_oracle, path)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert not isinstance(got[0], type), got
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            # -0.0 and 0.0 compare equal: compare the bits too
            assert a.tobytes() == b.tobytes()
