"""Data model and reduction of mean changes to the scalar magnitude eta.

A change of mean vector mu1 -> mu2 under a common positive definite
covariance Sigma behaves, for estimator-distribution purposes, exactly
like a univariate change of standardized size

    eta = || mu2 - mu1 ||_{Sigma^{-1}}  (Mahalanobis norm of the shift),

which in one dimension is |mu1 - mu2| / sigma.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChangeError, DomainError, FactorizationError

__all__ = [
    "Dataset",
    "ChangeModel",
    "UnivariateOrigin",
    "MultivariateOrigin",
    "standardized_change_univariate",
    "standardized_change_multivariate",
    "log_transform",
    "read_dataset_csv",
]

_SYM_TOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """n x d matrix of observations, time along rows.

    ``time_origin``, when set, is the calendar label of row 1 (e.g. a
    year); row i then maps to time_origin + (i - 1).
    """

    series: np.ndarray
    labels: tuple[str, ...] = ()
    time_origin: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.series, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise DomainError(f"series must be 2-dimensional, got shape {arr.shape}")
        n, d = arr.shape
        if n < 4:
            raise DomainError(f"need at least 4 time points, got {n}")
        if d < 1:
            raise DomainError("need at least one variable column")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise DomainError(f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")
        labels = tuple(self.labels) if self.labels else tuple(f"y{j + 1}" for j in range(d))
        if len(labels) != d:
            raise DomainError(f"{len(labels)} labels for {d} columns")
        if len(set(labels)) != d:
            raise DomainError(f"duplicate column labels in {list(labels)}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "series", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.series.shape[0]

    @property
    def d(self) -> int:
        return self.series.shape[1]

    def select(self, columns) -> "Dataset":
        """Subset by column labels (order preserved as given)."""
        idx = []
        for c in columns:
            if c not in self.labels:
                raise DomainError(f"unknown column {c!r}; have {list(self.labels)}")
            idx.append(self.labels.index(c))
        return Dataset(self.series[:, idx], tuple(columns), self.time_origin)


@dataclass(frozen=True)
class UnivariateOrigin:
    mu1: float
    mu2: float
    sigma: float


@dataclass(frozen=True)
class MultivariateOrigin:
    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray  # d x d covariance


@dataclass(frozen=True)
class ChangeModel:
    """Standardized change magnitude plus the parameters it came from."""

    eta: float
    origin: UnivariateOrigin | MultivariateOrigin


def standardized_change_univariate(mu1: float, mu2: float, sigma: float) -> ChangeModel:
    """eta = |mu1 - mu2| / sigma for a scalar mean change."""
    for name, v in (("mu1", mu1), ("mu2", mu2), ("sigma", sigma)):
        if not np.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    if mu1 == mu2:
        raise DegenerateChangeError("mu1 == mu2: the pre- and post-change laws coincide")
    eta = abs(mu1 - mu2) / sigma
    return ChangeModel(eta=float(eta), origin=UnivariateOrigin(float(mu1), float(mu2), float(sigma)))


def standardized_change_multivariate(mu1, mu2, sigma) -> ChangeModel:
    """eta = sqrt((mu2-mu1)' Sigma^-1 (mu2-mu1)) via a Cholesky solve.

    Sigma must be symmetric to within 1e-10 relative to its largest
    entry (it is then symmetrized) and positive definite, decided by
    whether the factorization succeeds.  The inverse is never formed.
    """
    m1 = np.asarray(mu1, dtype=float).reshape(-1)
    m2 = np.asarray(mu2, dtype=float).reshape(-1)
    S = np.asarray(sigma, dtype=float)
    d = m1.shape[0]
    if m2.shape[0] != d or S.shape != (d, d):
        raise DomainError(
            f"dimension mismatch: mu1 has {d} entries, mu2 has {m2.shape[0]}, Sigma is {S.shape}"
        )
    if not (np.all(np.isfinite(m1)) and np.all(np.isfinite(m2)) and np.all(np.isfinite(S))):
        raise DomainError("non-finite entries in the change parameters")
    scale = max(1.0, float(np.abs(S).max()))
    if float(np.abs(S - S.T).max()) > _SYM_TOL * scale:
        raise FactorizationError("Sigma is not symmetric within tolerance")
    S = 0.5 * (S + S.T)
    if np.array_equal(m1, m2):
        raise DegenerateChangeError("mu1 == mu2: the pre- and post-change laws coincide")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Sigma is not positive definite: {exc}") from exc
    y = np.linalg.solve(L, m2 - m1)
    eta = float(np.sqrt(y @ y))
    if eta == 0.0:
        raise DegenerateChangeError("mu1 == mu2: the pre- and post-change laws coincide")
    return ChangeModel(
        eta=eta,
        origin=MultivariateOrigin(mu1=m1.copy(), mu2=m2.copy(), sigma=S.copy()),
    )


def log_transform(data: Dataset) -> Dataset:
    """Entrywise natural log; labels and time origin carried over."""
    arr = data.series
    if np.any(arr <= 0):
        i, j = np.argwhere(arr <= 0)[0]
        raise DomainError(
            f"log transform needs strictly positive data; "
            f"row {i + 1}, column {data.labels[j]!r} is {arr[i, j]}"
        )
    return Dataset(np.log(arr), data.labels, data.time_origin)


@contextlib.contextmanager
def open_text(path, newline=None):
    """Open a UTF-8 text file, dropping a leading byte-order mark; bytes that are
    not UTF-8, and csv errors, met in the block are refused naming the file."""
    with open(path, newline=newline, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end].hex(" ")
            raise DomainError(f"{path}: not UTF-8 text ({exc.reason}: {bad})") from None
        except csv.Error as exc:
            raise DomainError(f"{path}: {exc}") from None


def read_dataset_csv(path) -> Dataset:
    """Load a dataset from CSV: header row of labels, one time point per row.

    A leading column whose header is `time` (any case) supplies the
    calendar origin: its first value becomes ``time_origin`` and the
    column is dropped from the series.  Values must be plain decimal
    numbers with '.' as the decimal point.  The file is UTF-8 text; a
    byte-order mark, as spreadsheet programs write, is dropped.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DomainError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DomainError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    time_origin = None
    if header and header[0].lower() == "time":
        tcol = arr[:, 0]
        if not np.all(np.isfinite(tcol) & (tcol == np.floor(tcol))):
            raise DomainError(f"{path}: time column must hold integers")
        if np.any(np.diff(tcol) != 1):
            raise DomainError(f"{path}: time column must increase by 1 per row")
        time_origin = int(tcol[0])
        arr = arr[:, 1:]
        header = header[1:]
    return Dataset(arr, tuple(header), time_origin)
