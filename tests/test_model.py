"""Dataset handling and the standardized-change reduction."""

import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from changepoint import model
from changepoint.errors import (
    ChangePointError,
    DegenerateChangeError,
    DomainError,
    FactorizationError,
)
from changepoint.model import (
    Dataset,
    log_transform,
    read_dataset_csv,
    standardized_change_multivariate,
    standardized_change_univariate,
)

MU1 = np.array([6.738, 7.137, 6.725])
MU2 = np.array([7.383, 7.483, 7.166])
SIGMA = np.array(
    [
        [0.365, -0.032, -0.029],
        [-0.032, 0.161, 0.104],
        [-0.029, 0.104, 0.211],
    ]
)


# --- univariate -----------------------------------------------------------

def test_univariate_basic():
    assert standardized_change_univariate(0.0, 1.0, 1.0).eta == 1.0
    assert standardized_change_univariate(0.0, 3.0, 2.0).eta == 1.5
    assert standardized_change_univariate(3.0, 0.0, 2.0).eta == 1.5


def test_univariate_degenerate_and_domain():
    with pytest.raises(DegenerateChangeError):
        standardized_change_univariate(5.0, 5.0, 1.0)
    with pytest.raises(DomainError):
        standardized_change_univariate(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        standardized_change_univariate(float("nan"), 1.0, 1.0)


# --- multivariate ---------------------------------------------------------

def test_mahalanobis_reported_magnitudes():
    assert standardized_change_multivariate(MU1, MU2, SIGMA).eta == pytest.approx(1.60, abs=5e-3)
    fj = np.ix_([0, 1], [0, 1])
    assert standardized_change_multivariate(
        MU1[[0, 1]], MU2[[0, 1]], SIGMA[fj]
    ).eta == pytest.approx(1.47, abs=5e-3)
    fa = np.ix_([0, 2], [0, 2])
    assert standardized_change_multivariate(
        MU1[[0, 2]], MU2[[0, 2]], SIGMA[fa]
    ).eta == pytest.approx(1.52, abs=5e-3)


def test_identity_covariance_is_euclidean():
    mu1 = np.array([1.0, -2.0, 0.5])
    mu2 = np.array([2.0, 0.0, 1.5])
    got = standardized_change_multivariate(mu1, mu2, np.eye(3)).eta
    assert got == pytest.approx(float(np.linalg.norm(mu2 - mu1)), rel=1e-14)


def test_not_positive_definite():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(FactorizationError):
        standardized_change_multivariate([0.0, 0.0], [1.0, 1.0], bad)


def test_asymmetric_rejected_but_tiny_asymmetry_symmetrized():
    S = SIGMA.copy()
    S[0, 1] += 1e-4
    with pytest.raises(FactorizationError):
        standardized_change_multivariate(MU1, MU2, S)
    S = SIGMA.copy()
    S[0, 1] += 1e-13  # last-digit CSV round-trip noise
    got = standardized_change_multivariate(MU1, MU2, S).eta
    assert got == pytest.approx(standardized_change_multivariate(MU1, MU2, SIGMA).eta, rel=1e-10)


def test_dimension_mismatch_and_degenerate():
    with pytest.raises(DomainError):
        standardized_change_multivariate([0.0, 1.0], [1.0], np.eye(2))
    with pytest.raises(DomainError):
        standardized_change_multivariate([0.0, 1.0], [1.0, 2.0], np.eye(3))
    with pytest.raises(DegenerateChangeError):
        standardized_change_multivariate(MU1, MU1.copy(), SIGMA)


@pytest.mark.parametrize("c", [1e-3, 7.0, 1e4])
def test_scale_equivariance(c):
    base = standardized_change_multivariate(MU1, MU2, SIGMA).eta
    scaled = standardized_change_multivariate(c * MU1, c * MU2, c * c * SIGMA).eta
    assert scaled == pytest.approx(base, rel=1e-12)


def test_subblock_consistency():
    idx = [0, 2]
    sub = standardized_change_multivariate(MU1[idx], MU2[idx], SIGMA[np.ix_(idx, idx)]).eta
    # the reduced problem is literally the sub-vectors plus principal submatrix
    again = standardized_change_multivariate(
        [MU1[0], MU1[2]], [MU2[0], MU2[2]],
        [[SIGMA[0, 0], SIGMA[0, 2]], [SIGMA[2, 0], SIGMA[2, 2]]],
    ).eta
    assert sub == again


def test_d1_consistency_with_univariate():
    # power-of-two sigma: squaring and sqrt are exact in float64
    for mu1, mu2, sigma in [(0.0, 1.0, 1.0), (1.0, 4.0, 2.0), (0.0, 3.0, 0.5)]:
        uni = standardized_change_univariate(mu1, mu2, sigma).eta
        multi = standardized_change_multivariate([mu1], [mu2], [[sigma * sigma]]).eta
        assert multi == uni
    uni = standardized_change_univariate(0.2, 1.9, 1.3).eta
    multi = standardized_change_multivariate([0.2], [1.9], [[1.3 * 1.3]]).eta
    assert multi == pytest.approx(uni, rel=1e-15)


# --- dataset and transforms -------------------------------------------------

def test_log_transform_basics():
    data = Dataset(np.ones((5, 2)), ("a", "b"), time_origin=1990)
    out = log_transform(data)
    assert np.all(out.series == 0.0)
    assert out.labels == ("a", "b") and out.time_origin == 1990
    e_data = Dataset(np.full((4, 1), np.e))
    assert log_transform(e_data).series[0, 0] == pytest.approx(1.0, rel=1e-15)


def test_log_transform_rejects_nonpositive():
    arr = np.ones((4, 2))
    arr[2, 1] = 0.0
    with pytest.raises(DomainError, match="row 3"):
        log_transform(Dataset(arr, ("a", "b")))


def test_dataset_validation():
    with pytest.raises(DomainError):
        Dataset(np.ones((3, 1)))  # too short
    with pytest.raises(DomainError):
        Dataset(np.array([[1.0, np.nan]] * 4))
    with pytest.raises(DomainError):
        Dataset(np.ones((4, 2)), ("only_one",))
    data = Dataset(np.arange(8.0).reshape(4, 2), ("a", "b"))
    assert data.select(["b"]).labels == ("b",)
    with pytest.raises(DomainError):
        data.select(["missing"])


def test_csv_round_trip_with_time_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("time,Feb,Jul\n1951,1.5,2.5\n1952,1.25,2.25\n1953,1.0,2.0\n1954,0.75,1.75\n")
    data = read_dataset_csv(path)
    assert data.time_origin == 1951
    assert data.labels == ("Feb", "Jul")
    assert data.n == 4 and data.d == 2
    assert data.series[1, 0] == 1.25


def test_csv_without_time_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a\n1\n2\n3\n4\n")
    data = read_dataset_csv(path)
    assert data.time_origin is None and data.d == 1


def test_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(DomainError, match=":3"):
        read_dataset_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DomainError, match="expected 2 fields"):
        read_dataset_csv(ragged)
    nontime = tmp_path / "t.csv"
    nontime.write_text("time,a\n1951.5,1\n1952.5,2\n1953.5,3\n1954.5,4\n")
    with pytest.raises(DomainError, match="integers"):
        read_dataset_csv(nontime)


def test_csv_reader_errors_are_refusals(tmp_path):
    # an infinite calendar label is no integer, even on a single row
    inf_time = tmp_path / "inf.csv"
    inf_time.write_text("time,a\ninf,1\n")
    with pytest.raises(DomainError, match="integers"):
        read_dataset_csv(inf_time)
    # a field past the csv module's size limit is refused, naming the file
    huge = tmp_path / "huge.csv"
    huge.write_text("a\n1\n" + "1" * 200_000 + "\n")
    with pytest.raises(DomainError, match=r"huge\.csv: field larger than field limit"):
        read_dataset_csv(huge)


@pytest.mark.parametrize(
    "text, where",
    [
        ('a\n"1\n"\n2\nx\n4\n', ":5: could not convert string to float: 'x'"),
        ('a,b\n"1\n",2\n3,4\n5,nan\n7,8\n', ":5: non-finite value at row 3, column 2"),
        ('"a\nb",c\n1,2\n3,4\n5,x\n7,8\n', ":5: could not convert string to float: 'x'"),
    ],
    ids=["text_cell", "non_finite_cell", "two_line_header"],
)
def test_refusal_after_a_multi_line_record_names_its_file_line(tmp_path, text, where):
    # a quoted field may span lines, so records and file lines part after it
    path = tmp_path / "quoted.csv"
    path.write_text(text)
    with pytest.raises(DomainError) as info:
        read_dataset_csv(path)
    assert str(info.value) == f"{path}{where}"


# --- the vectorized CSV read against the row parser ----------------------------

# cells float() reads, cells it refuses, and cells loadtxt and float() disagree on
_ODD_CELLS = st.sampled_from([
    "1_000", "\u0661\u0662", "\u0663.5", "nan", " nan ", "inf", "-Infinity", "1e400", "4.9e-325",
    '"1.5"', '"1,5"', '""', "", " ", "\t", "1.5 # c", "#", "# 1", "\x00", "1\x00", "\x1c1",
    "1\x1f", "\xa01", " 1 ", "0x10", "1d3", "+1", "-0", "1e", "1 2", "\u20032.5",
])
_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: format(x, ".10g")),
    st.integers(-10**20, 10**20).map(str),
)


@st.composite
def _csv_bytes(draw):
    """CSV bytes that are mostly plain, with rare odd cells, rows, headers and bytes."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    timed = draw(st.booleans())
    odd = draw(st.integers(0, 3))  # 0: a plain file; else odd items come 1 in 3 * odd + 1

    def rarely():
        return odd and draw(st.integers(0, 3 * odd)) == 0

    def cell():
        return draw(_ODD_CELLS) if rarely() else draw(_PLAIN_CELLS)

    odd_labels = ['"y{}"', '"a,{}"', '"y{}', " c{} ", "y1"]
    labels = [draw(st.sampled_from(odd_labels)).format(j + 1) if rarely() else f"y{j + 1}"
              for j in range(d)]
    header = ([draw(st.sampled_from(["time", "Time", '"time"']))] if timed else []) + labels

    origin = draw(st.integers(-5, 3000))
    every_row = draw(st.integers(3, 5)) if rarely() else 0  # a width off on every row
    rows = []
    for i in range(n):
        row = ([str(origin + i)] if timed else []) + [cell() for _ in range(d)]
        shape = draw(st.integers(1, 5)) if rarely() else every_row
        if shape == 1:
            rows.append("")
        elif shape == 2:
            rows.append(draw(st.sampled_from([" ", "\t", " , ", ","])))
        elif shape == 3:
            rows.append(",".join(row) + ",")
        elif shape == 4:
            rows.append(",".join(row + [cell()]))
        elif shape == 5:
            rows.append(",".join(row[:-1]))
        else:
            rows.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([",".join(header)] + rows)
    if draw(st.booleans()):
        text += end
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if rarely():
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\x00", b"\xff", b"\r", b"\n", b'"'])) + data[at:]
    return data


def _outcome(path):
    """Everything a caller sees of one read: the series bits and labels, or the refusal."""
    try:
        data = read_dataset_csv(path)
    except ChangePointError as exc:
        return type(exc).__name__, str(exc)
    return data.series.view(np.uint64).tolist(), data.labels, data.time_origin


@settings(max_examples=300, deadline=None, derandomize=True)
@example(data=b"a\n1\n2\nnan\n4\n")
@example(data=b"a,b\n1,2,3\n4,5,6\n7,8,9\n1,2,3\n")
@example(data=b"a,b\n1,2\n3,4\n5,6\n7,8 # c\n")
@example(data=b"a\n1\n2\n\x1c3\n4\n")
@example(data=b'"a\n1\n2\n3\n4\n')
@example(data=b"a\n\r\n\n")
@example(data=b"a\n1\n2\n3\n0." + b"0" * 200_000 + b"1\n")
@given(data=_csv_bytes())
def test_vectorized_read_matches_row_parser(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        got = _outcome(path)
        # the reference: the same read with the vectorized pass off, so the row parser runs
        with mock.patch.object(model, "_read_plain", lambda fh: None):
            want = _outcome(path)
    assert got == want


def _benchmark_shaped(d):
    """The benchmark's series layout: `.10g` values, and a `time` column when d = 1."""
    x = np.random.default_rng(d).standard_normal((500, d)) * 3.0 + 7.0
    cols = [f"y{j + 1}" for j in range(d)]
    rows = [",".join(format(v, ".10g") for v in row) for row in x.tolist()]
    if d == 1:
        cols.insert(0, "time")
        rows = [f"{1000 + r},{row}" for r, row in enumerate(rows)]
    return ",".join(cols) + "\n" + "\n".join(rows) + "\n", x


@pytest.mark.parametrize("d", [1, 3])
def test_plain_file_takes_the_vectorized_path(tmp_path, monkeypatch, d):
    text, x = _benchmark_shaped(d)
    path = tmp_path / "series.csv"
    path.write_text(text)

    def refuse(fh, path):
        raise AssertionError("the row parser ran on a plain file")

    monkeypatch.setattr(model, "_read_rows", refuse)
    data = read_dataset_csv(path)
    assert data.series.shape == (500, d)
    assert data.series.tolist() == [[float(format(v, ".10g")) for v in row] for row in x.tolist()]
    assert data.time_origin == (1000 if d == 1 else None)


def _outcome_through_pipe(tmp_path, data):
    """`_outcome` of `data` read from a named pipe, with the pipe's name put back as `in.csv`."""
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    done = threading.Event()

    def write():
        fifo.write_bytes(data)
        # a reader that opens the pipe a second time waits for a writer: give it an empty one
        while not done.wait(0.05):
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader is waiting
                pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        got = _outcome(fifo)
    finally:
        done.set()
        writer.join()
    if isinstance(got[1], str):
        got = got[0], got[1].replace(str(fifo), str(tmp_path / "in.csv"))
    return got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "last", [b"3.141592653589793,2.718281828459045", b"nan,1", b"1,2,3", b'"1",2']
)
def test_pipe_input_reads_like_a_file(tmp_path, last):
    # far past one read buffer, so a reader that rewinds or opens the path twice loses rows
    body = b"".join(b"%d.123456789,%d.987654321\n" % (i, -i) for i in range(2000))
    data = b"a,b\n" + body + last + b"\n"
    (tmp_path / "in.csv").write_bytes(data)
    want = _outcome(tmp_path / "in.csv")
    assert _outcome_through_pipe(tmp_path, data) == want
    if last in (b"nan,1", b"1,2,3"):
        assert want[0] == "DomainError" and ":2002: " in want[1]
    else:
        assert len(want[0]) == 2001
