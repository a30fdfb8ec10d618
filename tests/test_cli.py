"""End-to-end CLI behavior: pipelines, artifacts, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import changepoint
from changepoint import cli, detect, estimators, exactdist, model, montecarlo
from changepoint.cli import main
from changepoint.errors import ChangePointError, PrecisionError
from changepoint.exactdist import read_pmf_csv

MU1 = np.array([6.738, 7.137, 6.725])
MU2 = np.array([7.383, 7.483, 7.166])
SIGMA = np.array(
    [
        [0.365, -0.032, -0.029],
        [-0.032, 0.161, 0.104],
        [-0.029, 0.104, 0.211],
    ]
)


def engineered_moments_series(seed=6) -> np.ndarray:
    """40 x 3 series whose segment means at t=14 and pooled covariance
    (scatter over n-2) equal the target moments exactly."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((40, 3))
    left = raw[:14] - raw[:14].mean(axis=0)
    right = raw[14:] - raw[14:].mean(axis=0)
    dev = np.vstack([left, right])
    G = dev.T @ dev / 38.0
    A = np.linalg.cholesky(SIGMA) @ np.linalg.inv(np.linalg.cholesky(G))
    dev = dev @ A.T
    out = np.empty((40, 3))
    out[:14] = MU1 + dev[:14]
    out[14:] = MU2 + dev[14:]
    return out


def _write_creek_csv(path, series):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,Feb,Jul,Aug\n")
        for i, row in enumerate(series):
            fh.write(f"{1951 + i}," + ",".join(format(v, ".12f") for v in row) + "\n")


@pytest.fixture()
def creek_csv(tmp_path):
    path = tmp_path / "creek.csv"
    _write_creek_csv(path, engineered_moments_series())
    return path


# --- dist ----------------------------------------------------------------

def test_dist_writes_verified_artifacts(tmp_path, capsys):
    out = tmp_path / "pmf.csv"
    rc = main(["dist", "--eta", "1.6", "--tol", "1e-10", "--out", str(out), "--verify"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "round trip verified bit-exact" in stdout
    probs = read_pmf_csv(out)
    s4 = sum(v for k, v in probs.items() if abs(k) <= 4)
    assert s4 == pytest.approx(0.965, abs=2e-3)
    obj = json.loads((tmp_path / "pmf.json").read_text())
    assert obj["K"] >= 4 and len(obj["probs"]) == 2 * obj["K"] + 1


def test_dist_concentrates_for_large_eta(tmp_path, capsys):
    rc = main(["dist", "--eta", "10", "--out", str(tmp_path / "p.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    prob0 = float([l for l in out.splitlines() if l.startswith("prob at 0")][0].split(":")[1])
    assert prob0 > 0.999


def test_dist_huge_eta_writes_the_point_mass(tmp_path, capsys):
    # the tilt n eta^2 overflows: b~ is 0, not nan, and the law is the atom at 0
    rc = main(["dist", "--eta", "1e200", "--out", str(tmp_path / "p.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "variance: 0.000000\n" in out
    assert "total mass: 1.000000000000 " in out

    def refuse(name):
        raise AssertionError(f"{name} in the JSON")

    obj = json.loads((tmp_path / "p.json").read_text(), parse_constant=refuse)
    assert obj["K"] == 8
    assert obj["probs"] == [0.0] * 8 + [1.0] + [0.0] * 8
    assert read_pmf_csv(tmp_path / "p.csv") == {k: float(k == 0) for k in range(-8, 9)}


def test_ci_huge_eta_gives_the_zero_halfwidth(capsys):
    assert main(["ci", "--eta", "1e300", "--level", "0.9", "--tau", "50", "--n", "100"]) == 0
    assert capsys.readouterr().out.startswith("interval: [50, 50] at level 0.9")


@pytest.mark.parametrize("eta", [1e308, sys.float_info.max])
def test_overflowing_eta_gives_the_point_mass(tmp_path, capsys, eta):
    # eta sqrt(n) / 2 overflows as well as the tilt: b is 0, as it is at eta 1e200
    assert main(["dist", "--eta", repr(eta), "--out", str(tmp_path / "p.csv")]) == 0
    assert "total mass: 1.000000000000 " in capsys.readouterr().out
    assert read_pmf_csv(tmp_path / "p.csv") == {k: float(k == 0) for k in range(-8, 9)}
    assert json.loads((tmp_path / "p.json").read_text())["probs"] == [0.0] * 8 + [1.0] + [0.0] * 8
    assert main(["ci", "--eta", repr(eta), "--level", "0.9", "--tau", "50", "--n", "100"]) == 0
    assert capsys.readouterr().out.startswith("interval: [50, 50] at level 0.9")


def test_dist_past_the_tiles_does_not_import_scipy_linalg(tmp_path):
    # importing scipy.linalg alone adds about 5 MB to the peak resident size
    src = str(Path(exactdist.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from changepoint.cli import main\n"
        f"assert main(['dist', '--eta', '0.1122', '--out', {str(tmp_path / 'p.csv')!r}]) == 0\n"
        "assert 'scipy.linalg' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dist_eta_guard_exits_2(tmp_path, capsys):
    rc = main(["dist", "--eta", "0.01", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eta must be >= 0.05")
    assert "Traceback" not in err


@pytest.mark.parametrize("eta", ["inf", "nan"])
def test_dist_non_finite_eta_exits_2(tmp_path, capsys, eta):
    rc = main(["dist", "--eta", eta, "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: eta must be a positive finite real, got {eta}\n"


@pytest.mark.parametrize("eta", ["-1", "0"])
def test_dist_non_positive_eta_exits_2(tmp_path, capsys, eta):
    rc = main(["dist", "--eta", eta, "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: eta must be a positive finite real, got {float(eta)!r}\n"
    )


# sha256 of the artifacts as produced by commit a6dea25, before the single
# ladder build per offset law; performance work on exactdist must keep
# them byte for byte.  (The masses come from BLAS dot products, so a BLAS
# with a different summation order may need them re-recorded.)
_DIST_SHA256 = {
    "0.3554": (
        "869d1fd2af12510afd3e5924a0fcd5d6700e8e9861e1b1e38dff1b7e12400ecd",
        "0ead1f71331d5c37cb108a014abcdb56d49b35336b89d20f9879a9d1709cc095",
    ),
    "1.0": (
        "c2e6572a930adc470cdfb72664d5a11bbc7edb2dc429e9009d35ea5e07f16d77",
        "96aa12d423c198ecbfbbe6be34ed1ab62451c86e2d7c059320f54ca9d5a4a85a",
    ),
    "2.831": (
        "78b8a394f5f4f40ec474c2f1709a92ec1600782904954f024769878ae8f2c755",
        "9811b674abc3f702176b9b83fc6dca5c60c68a244524d24edc193eeb6ce2440f",
    ),
}
_CI_SHA256 = "08cb913f049fc4f019e6975814fe004c47bae465878986443cb69ec0c99f53cf"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("eta", sorted(_DIST_SHA256))
def test_dist_artifacts_golden_bytes(tmp_path, eta):
    out = tmp_path / "pmf.csv"
    assert main(["dist", "--eta", eta, "--out", str(out), "--verify"]) == 0
    assert (_sha256(out), _sha256(tmp_path / "pmf.json")) == _DIST_SHA256[eta]


def test_ci_json_golden_bytes(tmp_path):
    out = tmp_path / "ci.json"
    argv = ["ci", "--eta", "0.7", "--level", "0.9", "--tau", "120", "--n", "300", "--origin", "1900"]
    assert main(argv + ["--out", str(out)]) == 0
    assert _sha256(out) == _CI_SHA256


# sha256 of ci interval JSON as produced by commit c1d3c95, before ci
# sized the offset law to the level: the prefix recursion must keep them.
# The last two were re-recorded when ``achieved`` became the mass of the
# fold that picks m; only that field moved, one ulp up.
_CI_LEVEL_SHA256 = {
    ("0.1122", "0.8", "2500", "6000", None):
        "b545c0957d1d0ba2b55018cb998d97dee6d4a4476b9cdeba2dd9edf741bf112e",
    ("0.1122", "0.9", "2500", "6000", None):
        "ca1e33a2bcbdd7ac4dc17ebccca2badaab7bcb4576c44333f90dc28dbf6b0103",
    ("0.1122", "0.95", "2500", "6000", None):
        "73bdfca0041d2ea4eb3ca2d573ffd857db3a78902c39b96cd77bc0af8535cd47",
    ("0.1122", "0.99", "2500", "6000", None):
        "6ed1030ff5445e19207895da9428476d65d6d7b8624257b6e8a8ad0af6d91ad4",
    # clipped at the lower end
    ("0.3", "0.95", "3", "20000", None):
        "71a225c07eec9ac9429d61f8ba7f3c15825e8cc57ee7b67ee569b6c01c0ceb0a",
    ("0.1413", "0.99", "5000", "90000", "1901"):
        "caf80fb795458a6043d8e1fcf8348ddefb232725a8e09a363cd2af013cb086f4",
}


@pytest.mark.parametrize("case", sorted(_CI_LEVEL_SHA256, key=str))
def test_ci_level_json_golden_bytes(tmp_path, case):
    eta, level, tau, n, origin = case
    out = tmp_path / "ci.json"
    argv = ["ci", "--eta", eta, "--level", level, "--tau", tau, "--n", n, "--out", str(out)]
    if origin is not None:
        argv += ["--origin", origin]
    assert main(argv) == 0
    assert _sha256(out) == _CI_LEVEL_SHA256[case]


def test_ci_small_eta_sizes_the_recursion_to_the_level(tmp_path, capsys):
    # eta = 0.05 passes the guard; its full support K exceeds the tables'
    # cap, so dist refuses it, while ci needs only the 0.99 halfwidth
    rc = main(["dist", "--eta", "0.05", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: support for eta=0.05 at tol=1e-10 exceeds the 100000 cap\n"
    )
    out = tmp_path / "ci.json"
    argv = ["ci", "--eta", "0.05", "--level", "0.99", "--tau", "20000", "--n", "40000"]
    assert main(argv + ["--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["halfwidth"] == 6884
    assert (obj["lo"], obj["hi"]) == (20000 - 6884, 20000 + 6884)


# sha256 of the data reports as produced by commit c9d6f84, before the
# reports became plain records dumped once by the CLI; serialization work
# must keep them byte for byte.  (The same BLAS caveat applies.)  The
# analyze digest was re-recorded when the unconditional interval's
# ``achieved`` became the mass of the fold that picks m, one ulp up.
_REPORT_SHA256 = {
    "analyze": "886188d43539f5713961f95a91991d0069b809b7dca90e93ddf4dce86d5713a3",
    "detect": "618249deb7b1c3dffc8016ea0248e0ecbf56b9c310bf05acf51a57a389e6664f",
    "estimate": "639a4d0a604e2699940ab825bdb015a21057fdef4b4433cc1a93accdf818d086",
}
_SIMULATE_SHA256 = {
    "grid.json": "e036130dbf72621dd94ea3d37666c60ea1afbbb81754d489fe329ac352f2ccf5",
    "grid.cell0.csv": "fba20b1f7d1155b1225881b99374ea4deaf12031852cbde4620ac597e98fffd6",
    "grid.cell1.csv": "0b52653e3d22c820ea3850a91b7c4dda53f09b8956389412a888de0033201a53",
}


@pytest.mark.parametrize("command", sorted(_REPORT_SHA256))
def test_data_report_golden_bytes(creek_csv, tmp_path, monkeypatch, command):
    # relative --in: analyze echoes the input path into its report
    monkeypatch.chdir(tmp_path)
    assert main([command, "--in", creek_csv.name, "--out", "report.json"]) == 0
    assert _sha256(tmp_path / "report.json") == _REPORT_SHA256[command]


def _write_step_csv(path):
    """50 rows with a time column, a 1.5 sigma mean step after row 22."""
    rng = np.random.default_rng(41)
    y = rng.standard_normal(50)
    y[22:] += 1.5
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,y\n")
        fh.writelines(f"{1960 + i},{v:.12f}\n" for i, v in enumerate(y))


# sha256 of univariate reports as produced by commit 418ef07, before the
# profile fit returned the model's origin records.  The creek Feb column
# is not significant, so its analyze report stops after detection; the
# step series is, and its report holds the conditional interval built
# from the fitted (mu1, mu2, sigma).
_UNIVARIATE_REPORT_SHA256 = {
    "estimate_feb": (
        ["estimate", "--in", "creek.csv", "--columns", "Feb"],
        "2b5ebab7e0db7b9d50d7224ca7d3f3978de144607b3e63fe8c1f4404a90108d2",
    ),
    "analyze_feb": (
        ["analyze", "--in", "creek.csv", "--columns", "Feb", "--delta", "4"],
        "ab551882df9863b5fec0c4a609c5ec6685532c126774cd58020a5a924360ff5f",
    ),
    "analyze_step": (
        ["analyze", "--in", "step.csv", "--delta", "4"],
        "fe0d00a91c740cf76379e4fa1dd8f08e1267be5f10eeee780b3ab0480f334d7d",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNIVARIATE_REPORT_SHA256))
def test_univariate_report_golden_bytes(creek_csv, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    _write_step_csv(tmp_path / "step.csv")
    argv, sha = _UNIVARIATE_REPORT_SHA256[case]
    assert main(argv + ["--out", "report.json"]) == 0
    assert _sha256(tmp_path / "report.json") == sha


def _edge_series() -> dict[str, np.ndarray]:
    """Two 60-row series, +1.2 after row 30, with a 40 sigma outlier on the first or last row.

    The outlier puts the profile fit at split 1 (or n - 1), which detection's
    admissible splits [2, n - 2] leave out, so detection picks split 2 (or n - 2).
    """
    rng = np.random.default_rng(5)
    first = rng.standard_normal(60)
    first[30:] += 1.2
    first[0] += 40.0
    last = rng.standard_normal(60)
    last[30:] += 1.2
    last[59] -= 40.0
    return {"first": first, "last": last}


# sha256 of the reports on the edge series as produced by commit 36ea22a,
# where detection evaluated the criterion itself over its own splits
_EDGE_REPORT_SHA256 = {
    ("first", "analyze"): "6c7d04103b203d3c4b9ad0ab9d37e7677c82865abec31267dd74f6b032320056",
    ("first", "detect"): "e0d885dc108a3444e674d40c80fefe26d0221e3e87113ee08d6fbec6c3ad785e",
    ("first", "estimate"): "89fd91bfdd6e9504dcb7502dd07bc51475e14889eb72a13a879931f3f44fb4e0",
    ("last", "analyze"): "b69c352f1b35d3fa00a2b17234d9e40f0269928dd0a505f1714e1540991c281b",
    ("last", "detect"): "ad47143695126a3148e5ebf3db68d55238884247c50f434751a9c0d16002f384",
    ("last", "estimate"): "81df8f28fff31730ff1222b1aa6b04d0b344dd6b3f4178849aed033164d8e5d0",
}


@pytest.mark.parametrize("series, command", sorted(_EDGE_REPORT_SHA256))
def test_edge_series_report_golden_bytes(tmp_path, monkeypatch, series, command):
    monkeypatch.chdir(tmp_path)
    y = _edge_series()[series]
    Path(f"{series}.csv").write_text("y\n" + "".join(f"{v!r}\n" for v in y.tolist()))
    assert main([command, "--in", f"{series}.csv", "--out", "report.json"]) == 0
    assert _sha256(tmp_path / "report.json") == _EDGE_REPORT_SHA256[series, command]
    if command == "analyze":
        report = json.loads(Path("report.json").read_text())
        fit, det = report["estimation"]["tau_hat"], report["detection"]["tau_hat"]
        assert (fit, det) == ((1, 2) if series == "first" else (59, 58))


@pytest.mark.parametrize("command", ["analyze", "detect", "estimate"])
def test_each_command_evaluates_the_criterion_once(creek_csv, monkeypatch, command):
    # the creek series is a significant d = 3 series, so analyze runs detection and the fit
    counted = []
    real = estimators.split_scatters

    def counting(series):
        counted.append(series.shape)
        return real(series)

    # detect imports the kernel by name, so a call through detect is counted too
    monkeypatch.setattr(estimators, "split_scatters", counting)
    monkeypatch.setattr(detect, "split_scatters", counting)
    assert main([command, "--in", str(creek_csv)]) == 0
    assert counted == [(40, 3)]


def test_short_multivariate_series_is_refused_alike(tmp_path, capsys):
    # 5 rows at d = 2 leave no split in [d+1, n-d-1]; every command refuses it the same way
    path = tmp_path / "short.csv"
    path.write_text("a,b\n1,2\n3,1\n2,5\n7,3\n4,4\n")
    for command in ("detect", "estimate", "analyze"):
        assert main([command, "--in", str(path)]) == 2
        assert capsys.readouterr().err == "error: need n >= 2(d+1) = 6 rows, got 5\n"


def test_simulate_grid_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    conf = tmp_path / "study.conf"
    conf.write_text("n = 40\ntau = 20\neta = 1.5, 2.5\nreps = 300\nmodes = known, cobb\n")
    out = tmp_path / "grid.json"
    assert main(["simulate", "--in", str(conf), "--seed", "11", "--out", str(out)]) == 0
    assert {name: _sha256(tmp_path / name) for name in _SIMULATE_SHA256} == _SIMULATE_SHA256


# sha256 of single-cell simulate outputs (JSON, CSV) as produced by commit
# f9be3c9 at CHANGEPOINT_THREADS=1, before the engine addressed substreams
# directly: a three-chunk known/cobb cell (the chunk merge), a d = 3
# student_t profile cell, and a chi_square cobb cell whose delta outruns
# both sample edges (every window clamped, some to width 0).
_SIMULATE_CELL_SHA256 = {
    "known_chunks": (
        "n = 60\ntau = 30\neta = 1.0\nreps = 25000\nmodes = known, cobb\n",
        "74b1e30d00b96680f4992ec1ff7ed168e65fdf69233d7d4777b80098621ae99e",
        "6e8ea9e176a1a30405addc49c79b471364d75553229ad956fa36b599edf796d4",
    ),
    "student_t_d3": (
        "n = 40\ntau = 20\neta = 1.5\nd = 3\nfamily = student_t\nnu = 5\nreps = 300\n"
        "modes = profile\n",
        "e439a244a7d886ddb857a526a861faa149dd4755c633dcf01adee10a545a8435",
        "5a9f5a4d1cbf0c24694506bdf4cfd74bbb229e73d5bb447fb4b9d67907651bd3",
    ),
    "chi_square_clamped": (
        "n = 30\ntau = 15\neta = 0.5\nfamily = chi_square\nnu = 3\ndelta = 20\nreps = 500\n"
        "modes = cobb\n",
        "72973c71566d25351d0923005d9258b229f18ce047b9d89762015bffc2192658",
        "8ff6da9d1e4b3fbaad035bc9491ebe58836b23bb13a22c30f567c0fa003f003c",
    ),
}


@pytest.mark.parametrize("cell", sorted(_SIMULATE_CELL_SHA256))
def test_simulate_cell_golden_bytes(tmp_path, monkeypatch, cell):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    body, json_sha, csv_sha = _SIMULATE_CELL_SHA256[cell]
    conf = tmp_path / "study.conf"
    conf.write_text(body)
    out = tmp_path / "cell.json"
    assert main(["simulate", "--in", str(conf), "--seed", "29", "--out", str(out)]) == 0
    assert (_sha256(out), _sha256(tmp_path / "cell.csv")) == (json_sha, csv_sha)


def test_dist_tol_underflow_exits_2(tmp_path, capsys):
    rc = main(["dist", "--eta", "1", "--tol", "1e-323", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "tol" in capsys.readouterr().err


def test_dist_verify_failure_exits_2(tmp_path, capsys, monkeypatch):
    def corrupted(path):
        back = read_pmf_csv(path)
        back[0] = np.nextafter(back[0], 1.0)
        return back

    monkeypatch.setattr(exactdist, "read_pmf_csv", corrupted)
    rc = main(["dist", "--eta", "1.6", "--out", str(tmp_path / "p.csv"), "--verify"])
    assert rc == 2
    assert "not bit-exact" in capsys.readouterr().err


# --- analyze ----------------------------------------------------------------

def test_analyze_engineered_moments_pipeline(creek_csv, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main([
        "analyze", "--in", str(creek_csv), "--level", "0.965",
        "--delta", "8", "--out", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["significant"] is True
    assert report["detection"]["p_value"] < 0.05
    assert report["estimation"]["tau_hat"] == 14
    assert report["eta_hat"] == pytest.approx(1.60, abs=0.02)
    iv = report["intervals"]["unconditional"]
    assert iv["calendar"] == [1960, 1968]
    assert iv["halfwidth"] == 4
    assert report["intervals"]["conditional"] is not None
    diag = report["diagnostics"]
    assert np.allclose(diag["mu1"], MU1, atol=1e-9)
    assert np.allclose(diag["mu2"], MU2, atol=1e-9)
    assert len(diag["mahalanobis_sq"]) == 40
    out = capsys.readouterr().out
    assert "1960-1968" in out


def test_analyze_single_column_univariate_path(creek_csv, tmp_path):
    report_path = tmp_path / "uni.json"
    rc = main([
        "analyze", "--in", str(creek_csv), "--columns", "Feb", "--out", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["d"] == 1
    assert report["detection"]["p"] == 1


def test_analyze_null_data_mostly_insignificant(tmp_path):
    rng = np.random.default_rng(314)
    insignificant = 0
    for i in range(100):
        path = tmp_path / f"null{i}.csv"
        y = rng.standard_normal(100)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y\n")
            fh.writelines(f"{v:.10f}\n" for v in y)
        out = tmp_path / f"null{i}.json"
        rc = main(["analyze", "--in", str(path), "--out", str(out)])
        assert rc == 0
        insignificant += not json.loads(out.read_text())["significant"]
    assert insignificant >= 90


def test_analyze_answers_below_the_full_support_cap(tmp_path, monkeypatch):
    # the full law at eta_hat = 0.0502 exceeds the tables' cap; analyze, like
    # ci, builds the law only to the level's halfwidth and gives ci's interval
    rng = np.random.default_rng(5)
    y = rng.standard_normal(400) + np.repeat([0.0, 3.0], 200)
    path = tmp_path / "shift.csv"
    path.write_text("y\n" + "".join(f"{v:.10f}\n" for v in y), encoding="utf-8")
    real = model.standardized_change_univariate
    monkeypatch.setattr(
        model, "standardized_change_univariate",
        lambda *args: dataclasses.replace(real(*args), eta=0.0502),
    )
    out = tmp_path / "report.json"
    assert main(["analyze", "--in", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["eta_hat"] == 0.0502
    assert report["distribution"]["K"] == exactdist.support_halfwidth_for(0.0502)
    assert report["distribution"]["K"] > exactdist._KMAX_CAP
    tau_hat = report["estimation"]["tau_hat"]
    ci_out = tmp_path / "ci.json"
    argv = ["ci", "--eta", "0.0502", "--level", "0.95", "--tau", str(tau_hat), "--n", "400"]
    assert main(argv + ["--out", str(ci_out)]) == 0
    unconditional = report["intervals"]["unconditional"]
    assert unconditional == json.loads(ci_out.read_text())
    assert (unconditional["lo"], unconditional["hi"], unconditional["clipped"]) == (1, 399, True)


def test_analyze_builds_the_law_once_at_its_level(creek_csv, tmp_path, monkeypatch):
    calls = []
    real = exactdist.build_pmf

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(exactdist, "build_pmf", counting)
    out = tmp_path / "report.json"
    assert main(["analyze", "--in", str(creek_csv), "--level", "0.965", "--out", str(out)]) == 0
    eta_hat = json.loads(out.read_text())["eta_hat"]
    assert calls == [((eta_hat,), {"tol": 1e-10, "level": 0.965})]


def test_non_finite_csv_cell_is_refused_at_its_line(tmp_path, capsys):
    # a skipped blank line puts data row 4 on file line 6
    path = tmp_path / "nan.csv"
    path.write_text("time,y\n1950,1\n1951,2\n\n1952,3\n1953,nan\n1954,5\n", encoding="utf-8")
    for command in ("detect", "estimate", "analyze"):
        assert main([command, "--in", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:6: non-finite value at row 4, column 1\n"
        )


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,nope\n")
    rc = main(["analyze", "--in", str(bad)])
    assert rc == 2
    assert "bad.csv" in capsys.readouterr().err


def test_analyze_degenerate_data_exits_3(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("a\n" + "1.0\n" * 30)
    rc = main(["analyze", "--in", str(path)])
    assert rc == 3


def test_analyze_exact_fit_exits_3(tmp_path, capsys):
    # a noiseless step: the profile fit has zero pooled variance
    path = tmp_path / "step.csv"
    path.write_text("a\n" + "0\n" * 10 + "1\n" * 10)
    assert main(["analyze", "--in", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert main(["estimate", "--in", str(path)]) == 0


def test_detect_exact_fit_exits_3(tmp_path, capsys):
    # the criterion is +inf at split 10; detection must not pass over it
    path = tmp_path / "step.csv"
    path.write_text("a\n" + "0\n" * 10 + "1\n" * 10)
    assert main(["detect", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "split 10" in captured.err
    assert "Traceback" not in captured.err
    assert "tau_hat" not in captured.out


def test_exact_fit_at_d2_is_refused_by_detect_and_found_by_estimate(tmp_path, capsys):
    # the second column is the first plus a step of 3 after row 15, so the
    # pooled scatter is singular at split 15 (slogdet sign -1 by rounding)
    t = np.random.default_rng(1).standard_normal(30)
    path = tmp_path / "exact.csv"
    rows = (f"{x!r},{x + 3.0 * (i >= 15)!r}\n" for i, x in enumerate(t.tolist()))
    path.write_text("a,b\n" + "".join(rows))
    assert main(["detect", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "split 15" in captured.err
    assert "Traceback" not in captured.err
    assert main(["analyze", "--in", str(path)]) == 3
    capsys.readouterr()
    out = tmp_path / "fit.json"
    assert main(["estimate", "--in", str(path), "--out", str(out)]) == 0
    assert "tau_hat = 15" in capsys.readouterr().out
    assert json.loads(out.read_text())["tau_hat"] == 15


def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"a\n1.0\n\xff\xfe\n2.0\n3.0\n")
    assert main(["detect", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text (invalid start byte: ff)")
    assert "Traceback" not in err
    rc = main(["simulate", "--in", str(path), "--seed", "1", "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")


def test_byte_order_mark_is_dropped(creek_csv, tmp_path, capsys):
    # spreadsheet programs save CSV as UTF-8 with a BOM before the header
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + creek_csv.read_bytes())
    reports = []
    for path in (creek_csv, bom):
        out = tmp_path / f"{path.stem}.json"
        assert main(["estimate", "--in", str(path), "--columns", "Feb", "--out", str(out)]) == 0
        reports.append((capsys.readouterr().out, out.read_bytes()))
    assert reports[0] == reports[1]
    assert "(year " in reports[1][0]
    conf = tmp_path / "study.conf"
    conf.write_bytes(b"\xef\xbb\xbfn = 40\ntau = 20\neta = 1.5\nreps = 10\n")
    rc = main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(tmp_path / "s.json")])
    assert rc == 0


# --- the exit-code contract on malformed CSV -----------------------------------

_NOT_A_NUMBER = st.sampled_from(["x", "abc", "1.2.3", "--1", "1e", "0x10", "1_0_", "one"])
_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity"])
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xfe\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"])


@st.composite
def _malformed_csv(draw):
    """A CSV file with one defect, and what its refusal must say."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(4, 12))
    timed = draw(st.booleans())
    header = (["time"] if timed else []) + [f"y{j + 1}" for j in range(d)]
    rows = [[f"{v:.6f}" for v in np.random.default_rng(draw(st.integers(0, 99))).standard_normal(d)]
            for _ in range(n)]
    if timed:
        rows = [[str(1950 + i)] + row for i, row in enumerate(rows)]
    width = len(header)
    defect = draw(st.sampled_from(["ragged", "text", "non_finite", "time", "empty", "bytes"]))
    i = draw(st.integers(0, n - 1))  # data row i is file line i + 2
    j = draw(st.integers(0, width - 1))
    expect = f":{i + 2}: "
    if defect == "ragged":
        if width > 1 and draw(st.booleans()):
            rows[i] = rows[i][:-1]
        else:
            rows[i] = rows[i] + ["0.5"]
    elif defect == "text":
        rows[i][j] = draw(_NOT_A_NUMBER)
    elif defect == "non_finite":
        rows[i][j] = draw(_NON_FINITE)
        if timed and j == 0:
            expect = ": time column must hold integers"
        else:
            expect = f"non-finite value at row {i + 1}, column {j + 1 - timed}"
    elif defect == "time":
        if not timed:
            header, rows = ["time"] + header, [["1950"] + row for row in rows]
        if draw(st.booleans()):
            rows[i][0] = f"{1950 + i}.5"
            expect = ": time column must hold integers"
        else:
            rows[i][0] = str(1950 + i + draw(st.sampled_from([-1, 1, 2, 40])))
            expect = ": time column must increase by 1 per row"
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    if defect == "empty":
        if draw(st.booleans()):
            return b"", ": empty file"
        return (",".join(header) + "\n" * draw(st.integers(1, 3))).encode(), ": no data rows"
    data = text.encode()
    if defect == "bytes":
        lines = data.split(b"\n")
        k = draw(st.integers(0, n))  # file line k + 1, the header included
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(_NOT_UTF8) + lines[k][at:]
        data = b"\n".join(lines)
        expect = ": not UTF-8 text ("
    return data, expect


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_malformed_csv())
def test_malformed_csv_exits_2_without_traceback(case):
    data, expect = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.csv"
        path.write_bytes(data)
        for command in ("detect", "estimate", "analyze"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([command, "--in", str(path)])
            assert rc == 2, (command, err.getvalue())
            assert err.getvalue().startswith("error:")
            assert "Traceback" not in err.getvalue()
            assert expect in err.getvalue(), (command, err.getvalue())


def test_analyze_log_transform_flag(tmp_path):
    rng = np.random.default_rng(77)
    y = np.exp(rng.standard_normal(60) * 0.5)
    y[30:] *= np.exp(2.0)
    path = tmp_path / "ln.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("flow\n")
        fh.writelines(f"{v:.10f}\n" for v in y)
    out = tmp_path / "ln.json"
    rc = main(["analyze", "--in", str(path), "--log-transform", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["significant"] is True
    assert report["estimation"]["tau_hat"] == 30


@pytest.mark.parametrize("delta", ["0", "-3"])
def test_analyze_delta_below_one_exits_2(creek_csv, tmp_path, capsys, delta):
    # refused before the data are read, whether or not detection is significant
    missing = tmp_path / "missing.csv"
    for path in (creek_csv, missing):
        assert main(["analyze", "--in", str(path), "--delta", delta]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: delta must be >= 1, got {delta}\n"
        assert captured.out == ""


def test_analyze_window_outrunning_the_sample_is_reported(creek_csv, tmp_path):
    out = tmp_path / "a.json"
    assert main(["analyze", "--in", str(creek_csv), "--delta", "20", "--out", str(out)]) == 0
    intervals = json.loads(out.read_text())["intervals"]
    assert intervals["conditional"] is None
    assert "exceeds the admissible splits" in intervals["conditional_error"]


def test_analyze_fit_at_the_first_split_reports_no_conditional_interval(tmp_path, capsys):
    # a leading outlier: the profile fit puts the change after row 1, so the
    # default window has halfwidth 1 and runs past the admissible splits
    y = np.r_[12.0, np.random.default_rng(0).normal(0.0, 1.0, 39)]
    path = tmp_path / "outlier.csv"
    path.write_text("a\n" + "".join(f"{v!r}\n" for v in y.tolist()))
    out = tmp_path / "a.json"
    assert main(["analyze", "--in", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["significant"] is True
    assert report["estimation"]["tau_hat"] == 1
    assert report["intervals"]["delta"] == 1
    assert report["intervals"]["conditional"] is None
    assert report["intervals"]["conditional_error"].startswith("window tau_hat +- delta = [0, 2]")
    assert "conditional interval unavailable" in capsys.readouterr().out


def test_analyze_constant_segments_at_d1_exit_3(tmp_path, capsys):
    path = tmp_path / "spike.csv"
    path.write_text("a\n5\n" + "0\n" * 29)
    assert main(["analyze", "--in", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: pooled sigma is 0 at tau_hat=1: both segments are constant\n"


def test_duplicate_column_labels_exit_2(creek_csv, tmp_path, capsys):
    dup = tmp_path / "dup.csv"
    dup.write_text("a,a\n" + "".join(f"{i % 3}.5,{i}\n" for i in range(20)))
    assert main(["estimate", "--in", str(dup), "--columns", "a"]) == 2
    assert capsys.readouterr().err == "error: duplicate column labels in ['a', 'a']\n"
    assert main(["estimate", "--in", str(creek_csv), "--columns", "Feb,Feb"]) == 2
    assert capsys.readouterr().err == "error: duplicate column labels in ['Feb', 'Feb']\n"


# --- detect / estimate / ci ----------------------------------------------------

def test_detect_reports_both_statistics(creek_csv, tmp_path):
    out = tmp_path / "det.json"
    rc = main(["detect", "--in", str(creek_csv), "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["mean"]["kind"] == "mean_change"
    assert obj["mean"]["p"] == 3
    assert obj["covariance_on_deviations"]["p"] == 6
    assert obj["threshold"] == 0.05


def test_estimate_outputs_profile_fit(creek_csv, tmp_path, capsys):
    out = tmp_path / "est.json"
    rc = main(["estimate", "--in", str(creek_csv), "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["mode"] == "profile"
    assert obj["tau_hat"] == 14
    assert "(year 1964)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["detect", "estimate", "analyze"])
def test_origin_flag_labels_the_estimate(tmp_path, capsys, command):
    rng = np.random.default_rng(2)
    y = np.r_[rng.normal(0.0, 1.0, 30), rng.normal(3.0, 1.0, 30)]
    path = tmp_path / "shift.csv"
    path.write_text("y\n" + "".join(f"{v!r}\n" for v in y.tolist()))
    assert main([command, "--in", str(path), "--origin", "1800"]) == 0
    assert "30 (year 1829)" in capsys.readouterr().out


def test_ci_command_calendar(tmp_path, capsys):
    out = tmp_path / "ci.json"
    rc = main([
        "ci", "--eta", "1.52", "--level", "0.956", "--tau", "14", "--n", "40",
        "--origin", "1951", "--out", str(out),
    ])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["calendar"] == [1960, 1968]
    assert obj["halfwidth"] == 4
    assert "1960-1968" in capsys.readouterr().out


def test_ci_tau_outside_sample_exits_2(capsys):
    rc = main(["ci", "--eta", "1", "--level", "0.95", "--tau", "500", "--n", "40"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "tau_hat" in captured.err
    assert "interval" not in captured.out


# --- simulate -------------------------------------------------------------------

def _sim_config(tmp_path, body):
    path = tmp_path / "study.conf"
    path.write_text(body)
    return path


def test_simulate_deterministic_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    conf = _sim_config(tmp_path, "n = 40\ntau = 20\neta = 2.0\nreps = 10\nmodes = known\n")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "--in", str(conf), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["simulate", "--in", str(conf), "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    csv1 = (tmp_path / "a.csv").read_text()
    assert csv1.splitlines()[0] == "mode,offset,count"


def test_simulate_grid_and_modes(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    conf = _sim_config(
        tmp_path, "n = 40\ntau = 20\neta = 1.5, 2.5\nreps = 200\nmodes = known, profile\n"
    )
    out = tmp_path / "grid.json"
    assert main(["simulate", "--in", str(conf), "--seed", "3", "--out", str(out)]) == 0
    cells = json.loads(out.read_text())
    assert len(cells) == 2
    assert {c["config"]["eta"] for c in cells} == {1.5, 2.5}
    assert (tmp_path / "grid.cell0.csv").exists() and (tmp_path / "grid.cell1.csv").exists()


def test_simulate_guards(tmp_path, capsys):
    conf = _sim_config(tmp_path, "n = 40\ntau = 20\neta = 1.5\nreps = 10\nfamily = student_t\nnu = 2\n")
    rc = main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "nu" in capsys.readouterr().err
    conf2 = _sim_config(tmp_path, "n = 40\neta = 1.5\nreps = 10\n")
    rc = main(["simulate", "--in", str(conf2), "--seed", "1", "--out", str(tmp_path / "y.json")])
    assert rc == 2


def _assert_grid_refused_before_any_cell(tmp_path, capsys, etas, message):
    conf = _sim_config(tmp_path, f"n = 40\ntau = 20\neta = {etas}\nreps = 50\n")
    out = tmp_path / "s.json"
    assert main(["simulate", "--in", str(conf), "--seed", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.conf"]


def test_simulate_refuses_a_small_eta_cell_before_any_cell_runs(tmp_path, capsys):
    # every cell's law is checked before the first cell runs, so the eta
    # guard stops the grid with nothing printed and no report written
    _assert_grid_refused_before_any_cell(
        tmp_path, capsys, "1.5, 0.04",
        "eta must be >= 0.05 (got 0.04); smaller changes make the ladder series "
        "impractically long",
    )


def test_simulate_refuses_a_cell_past_the_cap_before_any_cell_runs(tmp_path, capsys):
    # 0.0502 passes the guard, but run_study's full law exceeds the tables' cap
    _assert_grid_refused_before_any_cell(
        tmp_path, capsys, "1.5, 0.0502",
        "support for eta=0.0502 at tol=1e-10 exceeds the 100000 cap",
    )


@pytest.mark.parametrize("eta", ["5e153", "1e300"])
def test_simulate_refuses_an_eta_that_overflows_the_walks(tmp_path, capsys, eta):
    # (n eta)^2 overflows at n = 40: the walks would read TV 1 or nan and exit 0
    _assert_grid_refused_before_any_cell(
        tmp_path, capsys, f"1.5, {eta}",
        f"eta={float(eta)!r} at n=40 overflows the simulated walks: (n * eta)^2 must be finite",
    )


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("family", ["gaussian", "student_t\nnu = 5"])
def test_simulate_at_a_huge_finite_walk_eta_recovers_tau(tmp_path, monkeypatch, d, family):
    # (40 * 3e152)^2 is finite; warnings are errors, so no step overflows either
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    conf = _sim_config(
        tmp_path,
        f"n = 40\ntau = 20\neta = 3e152\nreps = 50\nd = {d}\nfamily = {family}\n"
        "modes = known, cobb, profile\n",
    )
    out = tmp_path / "s.json"
    assert main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tv"] == {"known": 0.0, "cobb": 0.0, "profile": 0.0}


@pytest.mark.parametrize("eta", ["1e8", "1e12"])
def test_simulate_refuses_a_profile_eta_the_split_kernel_cannot_resolve(tmp_path, capsys, eta):
    # at n = 40, tau = 20 these cells read profile TV 0.045 and 0.405 where the law gives 0
    conf = _sim_config(tmp_path, f"n = 40\ntau = 20\neta = {eta}\nreps = 200\nmodes = profile\n")
    out = tmp_path / "s.json"
    assert main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: profile mode at eta={float(eta)!r} loses the noise")
    assert "so eta <= 1.342e+06\n" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.conf"]


def test_simulate_profile_runs_at_eta_1e6(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    conf = _sim_config(tmp_path, "n = 40\ntau = 20\neta = 1e6\nreps = 200\nmodes = profile\n")
    out = tmp_path / "s.json"
    assert main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tv"] == {"profile": 0.0}


@pytest.mark.parametrize(
    "key, values",
    [("family", "gaussian, student_t"), ("nu", "5, 7"), ("d", "1, 3"), ("delta", "2, 4"),
     ("reps", "10, 20000")],
)
def test_simulate_non_grid_key_takes_one_value(tmp_path, capsys, key, values):
    body = {"n": "40", "tau": "20", "eta": "1.5", "reps": "10", key: values}
    conf = _sim_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in body.items()))
    rc = main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(tmp_path / "s.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: config key {key!r} takes one value, got {values}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.conf"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_report_value_is_refused_before_the_file_is_written(tmp_path, value):
    # JSON has no literal for nan or inf; the report is refused, not written invalid
    out = tmp_path / "r.json"
    with pytest.raises(PrecisionError) as exc:
        cli._write_json(str(out), {"tv": {"known": value}})
    assert str(out) in str(exc.value)
    assert not out.exists()


def test_simulate_refuses_profile_without_admissible_split(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the config must be refused before any replication")

    monkeypatch.setattr(montecarlo, "run_study", no_run)
    conf = _sim_config(tmp_path, "n = 7\ntau = 3\neta = 1.5\nd = 3\nreps = 10\nmodes = profile\n")
    rc = main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "needs n >= 8" in capsys.readouterr().err


def test_simulate_profile_at_smallest_admissible_n(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    conf = _sim_config(tmp_path, "n = 8\ntau = 4\neta = 1.5\nd = 3\nreps = 10\nmodes = profile\n")
    out = tmp_path / "x.json"
    assert main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["failures"]["profile"] == 0


@pytest.mark.parametrize("family, nu", [("student_t", "nan"), ("chi_square", "inf")])
def test_simulate_non_finite_nu_exits_2(tmp_path, capsys, family, nu):
    conf = _sim_config(tmp_path, f"n = 40\ntau = 20\neta = 1.5\nreps = 10\nfamily = {family}\nnu = {nu}\n")
    rc = main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "nu" in capsys.readouterr().err


def test_simulate_requires_seed(tmp_path, capsys):
    conf = _sim_config(tmp_path, "n = 40\ntau = 20\neta = 1.5\nreps = 10\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--in", str(conf), "--out", str(tmp_path / "z.json")])
    assert exc.value.code == 2


def test_simulate_flag_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    conf = _sim_config(tmp_path, "n = 40\ntau = 20\neta = 1.5\nreps = 500\n")
    out = tmp_path / "o.json"
    rc = main([
        "simulate", "--in", str(conf), "--seed", "5", "--out", str(out),
        "--eta", "2.5", "--n", "60", "--tau", "30", "--reps", "100",
    ])
    assert rc == 0
    cfg = json.loads(out.read_text())["config"]
    assert (cfg["n"], cfg["tau"], cfg["eta"], cfg["replications"]) == (60, 30, 2.5, 100)
    conf2 = _sim_config(tmp_path, "n = 40\ntau = 20\neta = 1.5\nreps = 10\nfamily = gaussian\n")
    rc = main([
        "simulate", "--in", str(conf2), "--seed", "5", "--out", str(tmp_path / "p.json"),
        "--family", "student_t", "--nu", "2",
    ])
    assert rc == 2  # overridden family needs nu > 2


# With several faults in one config, the first in this order is reported:
# unknown keys, missing n / tau / eta / reps, unparsable nu / d / delta /
# reps, unparsable n / tau / eta, then the cells in grid order.
_CONFIG_FAULTS = [
    ("tau = 20\neta = 1\nfoo = 1\n", "unknown config keys: ['foo']"),
    ("tau = 20\neta = 1\n", "missing 'n' (config key or flag)"),
    ("n = 40\ntau = 20\n", "missing 'eta' (config key or flag)"),
    ("n = 40\ntau = 20\neta = 1\n", "missing 'reps' (config key or --reps)"),
    ("n = 40\ntau = 20\neta = 1\nreps = x\nnu = y\n",
     "config key 'nu': could not convert string to float: 'y'"),
    ("n = 40\ntau = 20\neta = 1\nreps = 3.5\ndelta = r\n",
     "config key 'delta': invalid literal for int() with base 10: 'r'"),
    ("n = a\ntau = 20\neta = 1\nreps = x\n",
     "config key 'reps': invalid literal for int() with base 10: 'x'"),
    ("n = 40\ntau = t\neta = e\nreps = 3\n",
     "config key 'tau': invalid literal for int() with base 10: 't'"),
    ("n = 40, 50\ntau = 45, 10\neta = 1, e\nreps = 3\n",
     "config key 'eta': could not convert string to float: 'e'"),
    ("n = 40, 50\ntau = 45, 10\neta = 1\nreps = 3\n",
     "tau must be in [1, n-1], got tau=45, n=40"),
]


@pytest.mark.parametrize("body, message", _CONFIG_FAULTS)
def test_simulate_config_fault_precedence(tmp_path, capsys, body, message):
    conf = _sim_config(tmp_path, body)
    rc = main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_config_line_faults(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    conf = _sim_config(tmp_path, "n = 40\ntau = 20\neta = 1\nreps 10\n")
    assert main(["simulate", "--in", str(conf), "--seed", "1", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {conf}:4: expected 'key = value'\n"
    conf = _sim_config(tmp_path, "n = 40\ntau = 20\nn = 50\neta = 1\nreps = 10\n")
    assert main(["simulate", "--in", str(conf), "--seed", "1", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {conf}:3: duplicate key 'n'\n"


def test_simulate_config_skips_comments_and_blank_lines(tmp_path, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "1")
    reports = []
    for body in (
        "n = 40\ntau = 20\neta = 2.0\nreps = 10\n",
        "# a study cell\n\nn = 40  # rows\n\n   \ntau = 20\neta = 2.0\n# done\nreps = 10\n",
    ):
        conf = _sim_config(tmp_path, body)
        out = tmp_path / "s.json"
        assert main(["simulate", "--in", str(conf), "--seed", "7", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_simulate_non_integer_thread_count_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHANGEPOINT_THREADS", "abc")
    conf = _sim_config(tmp_path, "n = 40\ntau = 20\neta = 2.0\nreps = 10\n")
    assert main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == "error: CHANGEPOINT_THREADS must be an integer, got 'abc'\n"


_NUMERIC_KEYS = {"n": int, "tau": int, "eta": float, "d": int, "nu": float, "reps": int, "delta": int}


def _parses(kind, text: str) -> bool:
    try:
        kind(text.strip())
    except ValueError:
        return False
    return True


@settings(max_examples=80, deadline=None, derandomize=True)
@example(key="eta", value="abc")
@example(key="reps", value="1e3")
@given(
    key=st.sampled_from(sorted(_NUMERIC_KEYS)),
    # no comment, list separator or line break: the value stays one config value
    value=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="#,\r\n")),
)
def test_simulate_malformed_numeric_config_exits_2(key, value):
    assume(not _parses(_NUMERIC_KEYS[key], value))
    body = {"n": "40", "tau": "20", "eta": "1.5", "reps": "10", key: value}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        conf = Path(tmp) / "study.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in body.items()), encoding="utf-8")
        rc = main(["simulate", "--in", str(conf), "--seed", "1", "--out", str(Path(tmp) / "s.json")])
    assert rc == 2
    assert err.getvalue().startswith("error:") and repr(key) in err.getvalue()


# --- one parser per process, one criterion text per report --------------------

def test_parser_is_built_once_per_process():
    parser = cli._build_parser()
    assert main(["ci", "--eta", "1.5", "--level", "0.9", "--tau", "50", "--n", "100"]) == 0
    assert cli._build_parser() is parser


_REENTRANT_PAIRS = {
    "ci": (
        ["ci", "--eta", "0.7", "--level", "0.9", "--tau", "50", "--n", "100", "--origin", "1900"],
        ["ci", "--eta", "0.7", "--level", "0.9", "--tau", "50", "--n", "100"],
    ),
    "analyze": (
        ["analyze", "--in", "../step.csv", "--delta", "4"],
        ["analyze", "--in", "../step.csv"],
    ),
    "dist": (["dist", "--eta", "1.5", "--verify"], ["dist", "--eta", "1.5"]),
}


def _outputs(argv, run, cwd) -> tuple:
    # one call in a fresh directory: exit code, stdout and every file it wrote
    cwd.mkdir()
    out = ["--out", "r.csv" if argv[0] == "dist" else "r.json"]
    rc, stdout = run(argv + out, cwd)
    return rc, stdout, {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


@pytest.mark.parametrize("command", sorted(_REENTRANT_PAIRS))
def test_alternating_calls_write_what_a_fresh_process_writes(tmp_path, monkeypatch, capsys, command):
    _write_step_csv(tmp_path / "step.csv")
    src = str(Path(cli.__file__).resolve().parents[1])

    def fresh(argv, cwd):
        code = f"import sys; sys.path.insert(0, {src!r}); from changepoint.cli import main; " \
            f"raise SystemExit(main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def in_process(argv, cwd):
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        rc = main(argv)
        return rc, capsys.readouterr().out

    first, second = _REENTRANT_PAIRS[command]
    want = [_outputs(argv, fresh, tmp_path / f"fresh{i}") for i, argv in enumerate((first, second))]
    # the flag shows: --origin and --delta in the report, --verify on stdout
    assert want[0][0] == want[1][0] == 0 and want[0] != want[1]
    for k, argv in enumerate((first, second, first, second)):
        assert _outputs(argv, in_process, tmp_path / f"call{k}") == want[k % 2]


def test_usage_errors_and_version_after_a_cached_parse(capsys):
    assert main(["ci", "--eta", "1.5", "--level", "0.9", "--tau", "50", "--n", "100"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["ci"])
    assert exc.value.code == 2
    assert "the following arguments are required: --eta" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"changepoint {changepoint.__version__}\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 3),
    extra=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    exact=st.sampled_from([None, "first", "last"]),
)
def test_criterion_texts_match_each_serializer(d, extra, seed, exact):
    # the shared text is byte for byte what each serializer's own list dumps to
    n = 2 * (d + 1) + extra
    y = np.random.default_rng(seed).standard_normal((n, d))
    if exact == "first":
        y[1:] = 0.0  # one row against a constant rest: at d = 1 an exact fit at split 1
    elif exact == "last":
        y[:-1] = 0.0
    try:
        fit = estimators.mle_profile(model.Dataset(y))
        det = detect.mean_change_from_criterion(fit.walk_trace, d)
    except ChangePointError:
        return
    criterion, trace = cli._criterion_texts(fit.walk_trace, *det.admissible)
    assert "".join(criterion) == json.dumps(estimators.finite_list(fit.walk_trace))
    assert "".join(trace) == json.dumps(estimators.finite_list(det.trace))


def test_exact_fit_split_writes_null_in_both_arrays(tmp_path):
    # a d = 1 fit scores +inf at split 1, which detection's splits [2, n - 2] leave out
    y = np.zeros((10, 1))
    y[0] = 5.0
    fit = estimators.mle_profile(model.Dataset(y))
    det = detect.mean_change_from_criterion(fit.walk_trace, 1)
    assert np.isposinf(fit.walk_trace[0]) and det.admissible == (2, 8)
    criterion, trace = cli._criterion_texts(fit.walk_trace, *det.admissible)
    record = {
        "detection": detect.detection_report_to_json(det, trace=trace),
        "estimation": estimators.mle_result_to_json(fit, criterion=criterion),
    }
    out = tmp_path / "r.json"
    cli._write_json(str(out), record)
    plain = {
        "detection": detect.detection_report_to_json(det),
        "estimation": estimators.mle_result_to_json(fit),
    }
    assert out.read_text() == json.dumps(plain, sort_keys=True, allow_nan=False) + "\n"
    report = json.loads(out.read_text())
    assert report["detection"]["trace"][0] is None
    assert report["estimation"]["criterion"][0] is None
    assert report["detection"]["trace"][1:-1] == report["estimation"]["criterion"][1:-1]


def test_non_finite_value_beside_the_shared_text_exits_2(tmp_path, monkeypatch, capsys):
    # the step series is significant, so its report holds the criterion text and the variance
    monkeypatch.chdir(tmp_path)
    _write_step_csv(tmp_path / "step.csv")
    monkeypatch.setattr(exactdist, "variance_for", lambda eta: float("nan"))
    assert main(["analyze", "--in", "step.csv", "--out", "r.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: r.json: Out of range float values are not JSON compliant")
    assert not (tmp_path / "r.json").exists()
