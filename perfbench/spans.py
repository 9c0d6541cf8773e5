"""Per-module spans and counts, recorded from outside the program.

Each public function is wrapped at the name its caller looks it up under
(`twistcong.engine.zp_P_membership` is what `verify` calls), so nothing in
the package changes. A timed wrapper records a span; the metric's self time
is the span minus the wrapped spans inside it. A counted wrapper only counts
calls. A wrapped name that no longer exists is reported as absent.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

# metric -> the names its wrappers sit at; "_ms" metrics are timed (and
# their calls counted as "<layer>_calls"), "_calls" metrics only counted
WRAPS = {
    "dataset.parse_ms": ["twistcong.dataset.parse_dataset"],
    "dataset.hypotheses_ms": ["twistcong.engine.check_hypotheses"],
    "engine.verify_ms": ["twistcong.engine.verify"],
    "engine.recognize_ms": ["twistcong.engine.recognize_characters"],
    "engine.assemble_ms": ["twistcong.engine.assemble_numeric"],
    "engine.gz_q_vector_ms": ["twistcong.engine.gz_q_vector"],
    "engine.congruence_ms": ["twistcong.engine.congruence_lines"],
    "engine.unit_equivariance_ms": ["twistcong.engine.unit_and_equivariance"],
    "groups.membership_ms": ["twistcong.engine.res_map",
                             "twistcong.engine.zp_P_membership"],
    "groups.irreducible_characters_ms": ["twistcong.engine.irreducible_characters",
                                         "twistcong.dataset.irreducible_characters",
                                         "twistcong.groups.irreducible_characters",
                                         "twistcong.bsdsquares.irreducible_characters"],
    "exact.recognize_orbit_ms": ["twistcong.engine.recognize_orbit",
                                 "twistcong.bsdsquares.recognize_orbit"],
    "exact.real_embedding_ms": ["twistcong.exact.real_embedding",
                                "twistcong.heights.real_embedding",
                                "twistcong.report.real_embedding"],
    "heights.equivariant_height_ms": ["twistcong.engine.equivariant_height"],
    "heights.regulator_ms": ["twistcong.bsdsquares.regulator_from_translates"],
    "localfactors.global_correction_ms": ["twistcong.engine.global_correction",
                                          "twistcong.bsdsquares.global_correction"],
    "bsdsquares.sha_predictions_ms": ["twistcong.bsdsquares.sha_predictions"],
    "report.render_ms": ["twistcong.report.render"],
    "exact.cyclotomic_mul_calls": ["twistcong.exact.CyclotomicNumber.__mul__",
                                   "twistcong.exact.CyclotomicNumber.__rmul__"],
    "exact.cyclotomic_new_calls": ["twistcong.exact.CyclotomicNumber.__init__"],
    "exact.interval_mul_calls": ["twistcong.exact.DecimalWithError.__mul__",
                                 "twistcong.exact.DecimalWithError.__rmul__"],
}
# call counts reported next to a timed metric
COUNTED_SPANS = {"exact.recognize_orbit_ms": "exact.recognize_orbit_calls",
                 "exact.real_embedding_ms": "exact.real_embedding_calls",
                 "groups.irreducible_characters_ms": "groups.irreducible_characters_calls"}


def _resolve(name: str):
    """(owner, attribute) for a dotted name, or None when it is gone."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        # a method must be the class's own, not one inherited from object
        found = (owner.__dict__.get(parts[-1]) if isinstance(owner, type)
                 else getattr(owner, parts[-1], None))
        return (owner, parts[-1]) if callable(found) else None
    return None


class Tracer:
    """Installs the wrappers, accumulates self time and calls per metric."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: list[int] = []      # child time of each open span
        self._saved: list[tuple] = []
        self.absent = sorted({name for names in WRAPS.values() for name in names
                              if _resolve(name) is None})

    def _timed(self, metric: str, fn):
        self_ns, calls, open_spans = self.self_ns, self.calls, self._open

        def wrapper(*args, **kwargs):
            calls[metric] += 1
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - start
                self_ns[metric] += span - open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
        return wrapper

    def _counted(self, metric: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for metric, names in WRAPS.items():
            wrap = self._timed if metric.endswith("_ms") else self._counted
            for name in names:
                site = _resolve(name)
                if site is None:
                    continue
                owner, attr = site
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(metric, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_ns(self) -> int:
        return sum(self.self_ns.values())

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round means: milliseconds of self time, calls."""
        out: dict[str, tuple[float, str]] = {}
        for metric in WRAPS:
            if metric.endswith("_ms"):
                out[metric] = (self.self_ns[metric] / rounds / 1e6, "ms")
                if metric in COUNTED_SPANS:
                    out[COUNTED_SPANS[metric]] = (self.calls[metric] / rounds, "count")
            else:
                out[metric] = (self.calls[metric] / rounds, "count")
        return out
