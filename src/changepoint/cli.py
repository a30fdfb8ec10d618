"""Command-line front end.

Subcommands: ``dist`` (emit the exact offset distribution), ``detect``
(likelihood-ratio change tests), ``estimate`` (profile MLE), ``ci``
(confidence interval for a given change size), ``simulate`` (seeded
study cells from a config file), and ``analyze`` (the full
detect -> estimate -> distribution -> intervals -> diagnostics
pipeline).

Exit codes: 0 success, 2 usage or parse problem, 3 degenerate data.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

from . import __version__, detect, estimators, exactdist, model, montecarlo
from .errors import (
    ChangePointError,
    ConfigurationError,
    DegenerateDataError,
    FactorizationError,
    PrecisionError,
)

DETECTION_THRESHOLD = 0.05

_DATA_ERRORS = (DegenerateDataError, FactorizationError)


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    ``main`` is re-entrant: the parser is built once per process, and
    each call parses its argv into a fresh namespace, so nothing one call
    reads or writes carries over to the next.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ChangePointError as exc:
        # remaining package errors are contract/usage problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # the tree depends on nothing in argv, and parse_args leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="changepoint",
        description="Change-point estimation for Gaussian mean shifts",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="emit the exact offset distribution for a given eta")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--tol", type=float, default=exactdist.DEFAULT_TOL)
    p.add_argument("--out", required=True, help="CSV path; a .json sibling is written too")
    p.add_argument("--verify", action="store_true", help="re-read the CSV and check bit-exactness")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("detect", help="mean-change test plus covariance test on deviations")
    _add_input_args(p)
    p.add_argument("--out", help="write the detection report JSON here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("estimate", help="profile MLE of the change-point")
    _add_input_args(p)
    p.add_argument("--out", help="write the estimator JSON here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("ci", help="confidence interval for a known change size")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--tau", type=int, required=True, help="estimated change index")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--origin", type=int, help="calendar label of row 1")
    p.add_argument("--tol", type=float, default=exactdist.DEFAULT_TOL)
    p.add_argument("--out", help="write the interval JSON here")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("simulate", help="run study cells from a key-value config file")
    p.add_argument("--in", dest="input", required=True, help="config file path")
    p.add_argument("--seed", type=int, required=True, help="master seed (reproducibility is mandatory)")
    p.add_argument("--out", required=True, help="report JSON path; CSV sibling(s) written too")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="full detection/estimation/interval pipeline")
    _add_input_args(p)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--delta", type=int, help="conditional window halfwidth")
    p.add_argument("--tol", type=float, default=exactdist.DEFAULT_TOL)
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_analyze)

    return parser


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="input", required=True, help="CSV: header row, one time point per row")
    p.add_argument("--columns", help="comma-separated column labels (default: all)")
    p.add_argument("--log-transform", action="store_true", help="natural log of all entries first")
    p.add_argument("--origin", type=int, help="calendar label of row 1 (overrides a time column)")


def _load(args) -> model.Dataset:
    data = model.read_dataset_csv(args.input)
    if args.columns:
        cols = [c.strip() for c in args.columns.split(",") if c.strip()]
        data = data.select(cols)
    if args.log_transform:
        data = model.log_transform(data)
    if args.origin is not None:
        data = model.Dataset(data.series, data.labels, args.origin)
    return data


def _write(path: str | None, *pieces: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
            fh.write("\n")


class _JsonText(tuple):
    """A report value already encoded as JSON, in pieces the writer copies as they are."""


def _write_json(path: str | None, record, sort_keys: bool = True) -> None:
    """Encode a report record and write it, if a path is given.

    A value may be ``_JsonText``, so that one formatted text can stand
    in two places.  A non-finite float is refused before the file is
    opened: JSON has no literal for it.
    """
    if path:
        try:
            pieces = _json_pieces(record, sort_keys)
        except ValueError as exc:
            raise PrecisionError(f"{path}: {exc}") from None
        _write(path, *pieces)


def _json_pieces(value, sort_keys: bool) -> list[str]:
    """``json.dumps(value)`` as pieces whose concatenation is that text.

    A dict holding ``_JsonText`` (str keys only) is encoded key by key,
    with ``json.dumps``' order and separators; any other value is one dump.
    """
    if isinstance(value, _JsonText):
        return list(value)
    if not _holds_text(value):
        return [json.dumps(value, sort_keys=sort_keys, allow_nan=False)]
    pieces = []
    for i, (key, item) in enumerate(sorted(value.items()) if sort_keys else value.items()):
        pieces.append(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
        pieces += _json_pieces(item, sort_keys)
    pieces.append("}")
    return pieces


def _holds_text(value) -> bool:
    return isinstance(value, _JsonText) or (
        isinstance(value, dict) and any(map(_holds_text, value.values()))
    )


def _criterion_texts(criterion, lo: int, hi: int) -> tuple[_JsonText, _JsonText]:
    """JSON arrays of a profile criterion and of the detection trace read off it.

    The trace is the criterion with every split outside [lo, hi] null.
    The entries at splits [lo, hi] are formatted once, for both arrays;
    each side of that range holds at least one split (``admissible_splits``).
    """
    inner, head, tail = (
        json.dumps(estimators.finite_list(part))[1:-1]
        for part in (criterion[lo - 1 : hi], criterion[: lo - 1], criterion[hi:])
    )
    return (
        _JsonText((f"[{head}, ", inner, f", {tail}]")),
        _JsonText(("[" + "null, " * (lo - 1), inner, ", null" * (len(criterion) - hi) + "]")),
    )


# --- commands -------------------------------------------------------------

def cmd_dist(args) -> int:
    pmf = exactdist.build_pmf(args.eta, tol=args.tol)
    exactdist.write_pmf_csv(pmf, args.out)
    json_path = _sibling(args.out, ".csv", ".json")
    _write(json_path, exactdist.pmf_to_json(pmf))
    variance = exactdist.variance_for(args.eta)
    print(f"eta: {args.eta}")
    print(f"support halfwidth K: {pmf.support_halfwidth}")
    print(f"prob at 0: {pmf.prob(0):.6f}")
    print(f"variance: {variance:.6f}")
    print(f"total mass: {pmf.total_mass():.12f} (tail bound {pmf.tail_mass_bound:.3e})")
    print(f"wrote {args.out} and {json_path}")
    if args.verify:
        back = exactdist.read_pmf_csv(args.out)
        if back != pmf.as_mapping():
            raise PrecisionError(f"round trip through {args.out} is not bit-exact")
        print("round trip verified bit-exact")
    return 0


def _sibling(path: str, ext: str, suffix: str) -> str:
    return path.removesuffix(ext) + suffix


def cmd_detect(args) -> int:
    data = _load(args)
    mean_report = detect.mean_change_statistic(data)
    diag = detect.residual_diagnostics(data, mean_report.tau_hat)
    cov_report = None
    cov_error = None
    try:
        cov_report = detect.covariance_change_statistic(
            model.Dataset(diag.deviations, data.labels, data.time_origin)
        )
    except ChangePointError as exc:
        cov_error = str(exc)
    _print_detection("mean change", mean_report, data)
    if cov_report is not None:
        _print_detection("covariance change (deviations)", cov_report, data)
    else:
        print(f"covariance change test unavailable: {cov_error}")
    obj = {
        "mean": detect.detection_report_to_json(mean_report),
        "covariance_on_deviations": (
            None if cov_report is None else detect.detection_report_to_json(cov_report)
        ),
        "threshold": DETECTION_THRESHOLD,
    }
    _write_json(args.out, obj)
    return 0


def _print_detection(label: str, report, data: model.Dataset) -> None:
    where = _calendar_label(report.tau_hat, data.time_origin)
    pv = "n/a (n < 16)" if report.p_value is None else f"{report.p_value:.4f}"
    w = "n/a" if report.W is None else f"{report.W:.4f}"
    print(
        f"{label}: U={report.U:.4f} W={w} p-value={pv} "
        f"(threshold {DETECTION_THRESHOLD}) tau_hat={report.tau_hat}{where}"
    )


def _calendar_label(idx: int, origin: int | None) -> str:
    return "" if origin is None else f" (year {origin + idx - 1})"


def cmd_estimate(args) -> int:
    data = _load(args)
    result = estimators.mle_profile(data)
    where = _calendar_label(result.tau_hat, data.time_origin)
    print(f"tau_hat = {result.tau_hat}{where} (profile criterion)")
    # unsorted: the estimate report keeps its field order (tau_hat, mode, criterion, params)
    _write_json(args.out, estimators.mle_result_to_json(result), sort_keys=False)
    return 0


def cmd_ci(args) -> int:
    pmf = exactdist.build_pmf(args.eta, tol=args.tol, level=args.level)
    interval = estimators.confidence_interval(pmf, args.level, args.tau, args.n, args.origin)
    _print_interval("interval", interval)
    _write_json(args.out, dataclasses.asdict(interval))
    return 0


def _print_interval(label: str, iv) -> None:
    span = f"[{iv.lo}, {iv.hi}]"
    if iv.calendar:
        span += f" = years {iv.calendar[0]}-{iv.calendar[1]}"
    extra = " (clipped to the sample)" if iv.clipped else ""
    if iv.indices is not None and not iv.contiguous:
        span += f" non-contiguous set {list(iv.indices)}"
    print(f"{label}: {span} at level {iv.level} (achieved {iv.achieved:.4f}){extra}")


def cmd_analyze(args) -> int:
    if args.delta is not None:
        estimators.check_cobb_delta(args.delta)
    data = _load(args)
    report: dict = {
        "input": args.input,
        "columns": list(data.labels),
        "n": data.n,
        "d": data.d,
        "time_origin": data.time_origin,
        "log_transform": bool(args.log_transform),
        "threshold": DETECTION_THRESHOLD,
    }
    # detection reads the fit's criterion: one criterion pass per series
    fit = estimators.mle_profile(data)
    det = detect.mean_change_from_criterion(fit.walk_trace, data.d)
    significant = det.p_value is not None and det.p_value < DETECTION_THRESHOLD
    # the trace is the criterion, nulled outside detection's splits: formatted once
    criterion, trace = _criterion_texts(fit.walk_trace, *det.admissible)
    report["detection"] = detect.detection_report_to_json(det, trace=trace)
    report["significant"] = significant
    _print_detection("mean change", det, data)
    if not significant:
        print("no significant mean change at the threshold; stopping after detection")
        _write_json(args.out, report)
        return 0

    tau_hat = fit.tau_hat
    params = fit.params_used
    if data.d == 1:
        if params.sigma == 0:
            # an exact fit is a property of the data, not a bad argument
            raise DegenerateDataError(
                f"pooled sigma is 0 at tau_hat={tau_hat}: both segments are constant"
            )
        change = model.standardized_change_univariate(params.mu1, params.mu2, params.sigma)
    else:
        change = model.standardized_change_multivariate(params.mu1, params.mu2, params.sigma)
    eta_hat = change.eta
    where = _calendar_label(tau_hat, data.time_origin)
    print(f"tau_hat = {tau_hat}{where}, standardized change eta_hat = {eta_hat:.4f}")

    pmf = exactdist.build_pmf(eta_hat, tol=args.tol, level=args.level)
    unconditional = estimators.confidence_interval(
        pmf, args.level, tau_hat, data.n, data.time_origin
    )
    delta = args.delta
    if delta is None:
        delta = int(estimators.default_cobb_delta(tau_hat, data.n))
    conditional_iv = None
    conditional_err = None
    try:
        cond = estimators.cobb_conditional(data, tau_hat, delta, params)
        conditional_iv = estimators.confidence_interval(
            cond, args.level, tau_hat, data.n, data.time_origin
        )
    except ChangePointError as exc:
        conditional_err = str(exc)
    diag = detect.residual_diagnostics(data, tau_hat)

    _print_interval("unconditional interval", unconditional)
    if conditional_iv is not None:
        _print_interval(f"conditional interval (delta={delta})", conditional_iv)
    else:
        print(f"conditional interval unavailable: {conditional_err}")

    report["estimation"] = estimators.mle_result_to_json(fit, criterion=criterion)
    report["eta_hat"] = eta_hat
    report["distribution"] = {
        "eta": eta_hat,
        "K": exactdist.support_halfwidth_for(eta_hat, args.tol),
        "prob0": pmf.prob(0),
        "variance": exactdist.variance_for(eta_hat),
    }
    report["intervals"] = {
        "level": args.level,
        "delta": delta,
        "unconditional": dataclasses.asdict(unconditional),
        "conditional": None if conditional_iv is None else dataclasses.asdict(conditional_iv),
        "conditional_error": conditional_err,
    }
    report["diagnostics"] = {
        "mu1": diag.mu1.tolist(),
        "mu2": diag.mu2.tolist(),
        "sigma_pooled": diag.sigma.tolist(),
        "mahalanobis_sq": diag.mahalanobis_sq.tolist(),
        "deviations": diag.deviations.tolist(),
    }
    _write_json(args.out, report)
    return 0


# --- simulate -------------------------------------------------------------

def _parse_config_file(path: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    with model.open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip().lower()
            vals = [v.strip() for v in val.split(",") if v.strip()]
            if not vals:
                raise ConfigurationError(f"{path}:{lineno}: no value for {key!r}")
            if key in out:
                raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = vals
    return out


# Simulate config keys: the SimConfig field, the parser of one value, and the
# values kept ("grid" keeps all, and the cells span them; "all" keeps all;
# "one" refuses a second).  An omitted key takes SimConfig's default; one
# whose field has no default is required.
_CONFIG_KEYS = {
    "n": ("n", int, "grid"),
    "tau": ("tau", int, "grid"),
    "eta": ("eta", float, "grid"),
    "modes": ("modes", str.lower, "all"),
    "family": ("family", str.lower, "one"),
    "nu": ("nu", float, "one"),
    "d": ("d", int, "one"),
    "delta": ("cobb_delta", int, "one"),
    "reps": ("replications", int, "one"),
}
_REQUIRED = [
    f.name for f in dataclasses.fields(montecarlo.SimConfig) if f.default is dataclasses.MISSING
]


def _config_cells(raw: dict[str, list[str]], seed: int):
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    for key, (field, _, _) in _CONFIG_KEYS.items():
        if field in _REQUIRED and key not in raw:
            raise ConfigurationError(f"missing config key {key!r}")
    fields, grid = {"master_seed": seed}, {}
    # the grid keys are parsed last; either group in table order
    grid_last = sorted(_CONFIG_KEYS.items(), key=lambda item: item[1][2] == "grid")
    for key, (field, parse, kind) in grid_last:
        if key in raw:
            if kind == "one" and len(raw[key]) > 1:
                raise ConfigurationError(
                    f"config key {key!r} takes one value, got {', '.join(raw[key])}"
                )
            try:
                vals = [parse(v) for v in raw[key]]
            except ValueError as exc:
                raise ConfigurationError(f"config key {key!r}: {exc}") from None
            (grid if kind == "grid" else fields)[field] = vals[0] if kind == "one" else vals
    cells = itertools.product(*grid.values())
    return [montecarlo.SimConfig(**fields, **dict(zip(grid, cell))) for cell in cells]


def cmd_simulate(args) -> int:
    cells = _config_cells(_parse_config_file(args.input), args.seed)
    for cell in cells:
        # refuse the grid before any cell runs if a cell's law cannot be built
        exactdist.full_support_halfwidth(cell.eta)
    reports = []
    for cell in cells:
        report = montecarlo.run_study(cell)
        reports.append(report)
        for m in cell.modes:
            line = (
                f"n={cell.n} tau={cell.tau} eta={cell.eta} {cell.family} mode={m}: "
                f"TV={report.tv[m]:.4f} bias={report.bias[m]:+.4f} mse={report.mse[m]:.4f}"
            )
            if m == "cobb" and report.cobb_mass_at_center is not None:
                line += f" mass@center={report.cobb_mass_at_center:.4f}"
            print(line)
    if len(reports) == 1:
        _write_json(args.out, montecarlo.report_to_json(reports[0]))
        montecarlo.report_to_csv(reports[0], _sibling(args.out, ".json", ".csv"))
    else:
        _write_json(args.out, [montecarlo.report_to_json(r) for r in reports])
        for i, r in enumerate(reports):
            montecarlo.report_to_csv(r, _sibling(args.out, ".json", f".cell{i}.csv"))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
