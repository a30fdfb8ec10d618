"""In-memory spans around the package's public functions, from outside it.

Each wrapped function is replaced on the module attribute its caller
looks it up by, so the span sits exactly at the layer boundary:

* ``cli`` reaches ``model``/``detect``/``estimators``/``exactdist``/
  ``montecarlo`` through the modules (``exactdist.build_pmf`` ...);
* ``montecarlo`` imports ``known_walk`` and ``profile_criterion`` by name;
* ``detect`` imports ``split_scatters`` by name, while ``estimators``
  calls its own ``split_scatters`` (and ``profile_criterion``,
  ``known_walk``) as module globals;
* ``exactdist`` imports the ``numerics`` survival functions by name.

A span is ``[name, start, end, parent, op]``.  Its layer is the part of
the name before the dot.  Self time is the span's duration minus the
durations of its direct children (calls nest, so children never
overlap), which makes the self times of one op add up to its root span.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "model", "detect", "estimators", "exactdist", "numerics", "montecarlo")

# (module holding the looked-up name, attribute, span name)
PATCHES = (
    ("model", "read_dataset_csv", "model.read_dataset_csv"),
    ("model", "standardized_change_univariate", "model.standardized_change"),
    ("model", "standardized_change_multivariate", "model.standardized_change"),
    ("detect", "mean_change_statistic", "detect.mean_change_statistic"),
    ("detect", "covariance_change_statistic", "detect.covariance_change_statistic"),
    ("detect", "residual_diagnostics", "detect.residual_diagnostics"),
    ("detect", "detection_report_to_json", "detect.detection_report_to_json"),
    ("detect", "split_scatters", "estimators.split_scatters"),
    ("estimators", "split_scatters", "estimators.split_scatters"),
    ("estimators", "profile_criterion", "estimators.profile_criterion"),
    ("estimators", "known_walk", "estimators.known_walk"),
    ("estimators", "mle_profile", "estimators.mle_profile"),
    ("estimators", "cobb_conditional", "estimators.cobb_conditional"),
    ("estimators", "confidence_interval", "estimators.confidence_interval"),
    ("estimators", "mle_result_to_json", "estimators.mle_result_to_json"),
    ("estimators", "symmetric_interval", "exactdist.symmetric_interval"),
    ("exactdist", "build_pmf", "exactdist.build_pmf"),
    ("exactdist", "variance_for", "exactdist.variance_for"),
    ("exactdist", "build_ladder_tables", "exactdist.build_ladder_tables"),
    ("exactdist", "write_pmf_csv", "exactdist.write_pmf_csv"),
    ("exactdist", "pmf_to_json", "exactdist.pmf_to_json"),
    ("exactdist", "read_pmf_csv", "exactdist.read_pmf_csv"),
    ("exactdist", "std_normal_survival", "numerics.std_normal_survival"),
    ("exactdist", "log_b_tilde", "numerics.log_b_tilde"),
    ("montecarlo", "run_study", "montecarlo.run_study"),
    ("montecarlo", "report_to_json", "montecarlo.report_to_json"),
    ("montecarlo", "report_to_csv", "montecarlo.report_to_csv"),
    ("montecarlo", "known_walk", "estimators.known_walk"),
    ("montecarlo", "profile_criterion", "estimators.profile_criterion"),
)


def _kmax(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["kmax"]


# Counts recorded at a boundary: span name -> (counter, value from call and result)
COUNTERS = {
    "exactdist.build_ladder_tables": ("exactdist.ladder_mults", lambda a, k, r: _kmax(a, k) ** 2),
    "model.read_dataset_csv": ("model.rows_read", lambda a, k, r: r.n),
    "montecarlo.run_study": ("montecarlo.reps", lambda a, k, r: a[0].replications),
}


class Tracer:
    """Span recorder; ``patched`` installs the wrappers for its duration."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                self.counters[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, only: tuple[str, ...] | None = None):
        saved = []
        try:
            for mod_name, attr, name in PATCHES:
                if only is not None and name not in only:
                    continue
                mod = importlib.import_module(f"changepoint.{mod_name}")
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        """Duration minus direct children, per span; checks that children nest."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    raise RuntimeError(f"span {name} is not inside its parent {p[0]}")
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer sums from one traced pass (zeros where a layer did not run)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    run_study_self = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = span[0]
        total[name] += span[2] - span[1]
        calls[name] += 1
        layer_self[name.split(".")[0]] += own
        if name == "montecarlo.run_study":
            run_study_self += own

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    reps = tracer.counters["montecarlo.reps"]
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "model.read_csv_s": total["model.read_dataset_csv"],
        "model.rows_read": tracer.counters["model.rows_read"],
        "detect.mean_change_s": total["detect.mean_change_statistic"],
        "detect.covariance_change_s": total["detect.covariance_change_statistic"],
        "detect.diagnostics_s": total["detect.residual_diagnostics"],
        "detect.to_json_s": total["detect.detection_report_to_json"],
        "estimators.profile_s": total["estimators.profile_criterion"],
        "estimators.split_scatters_s": total["estimators.split_scatters"],
        "estimators.split_scatters_calls": calls["estimators.split_scatters"],
        "estimators.cobb_conditional_s": total["estimators.cobb_conditional"],
        "estimators.interval_s": total["estimators.confidence_interval"],
        "estimators.to_json_s": total["estimators.mle_result_to_json"],
        "estimators.known_walk_us_per_call": per_call_us("estimators.known_walk"),
        "estimators.profile_us_per_call": per_call_us("estimators.profile_criterion"),
        "exactdist.build_pmf_s": total["exactdist.build_pmf"],
        "exactdist.variance_s": total["exactdist.variance_for"],
        "exactdist.write_s": total["exactdist.write_pmf_csv"] + total["exactdist.pmf_to_json"],
        "exactdist.ladder_builds": calls["exactdist.build_ladder_tables"],
        "exactdist.ladder_mults": tracer.counters["exactdist.ladder_mults"],
        "numerics.survival_s": total["numerics.std_normal_survival"] + total["numerics.log_b_tilde"],
        "numerics.calls": calls["numerics.std_normal_survival"] + calls["numerics.log_b_tilde"],
        "montecarlo.run_study_s": total["montecarlo.run_study"],
        "montecarlo.reps": reps,
        "montecarlo.self_us_per_rep": 1e6 * run_study_self / reps if reps else 0.0,
        "montecarlo.to_json_s": total["montecarlo.report_to_json"] + total["montecarlo.report_to_csv"],
        "trace.spans": len(tracer.spans),
    })
    return out
