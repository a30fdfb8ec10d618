"""Dataset handling and the standardized-change reduction."""

import numpy as np
import pytest

from changepoint.errors import DegenerateChangeError, DomainError, FactorizationError
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
