"""Per-layer spans, recorded by wrapping statindex's public functions from
the outside; nothing is added inside the program.

Every wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly encloses.  Metrics named ``*self_s`` sum
self time; the other ``*_s`` metrics sum the full duration of the outermost
span of that metric (a kernel called inside another kernel, such as the
multiplications inside ``exp``, counts in both).  Counts are taken from
arguments and return values.  A function bound in several modules by
``from .x import y`` is replaced in every module that holds it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

PER_LAYER = {
    "cli.self_s": "s",
    "pairings.lower_s": "s",
    "pairings.lower_terms_out": "count",
    "pairings.index_self_s": "s",
    "pairings.hrr_self_s": "s",
    "pairings.verify_self_s": "s",
    "symmetric.reduce_s": "s",
    "symmetric.reduce_calls": "count",
    "symmetric.reduce_terms_in": "count",
    "symmetric.reduce_terms_out": "count",
    "genera.poly_s": "s",
    "genera.poly_calls": "count",
    "genera.poly_hits": "count",
    "genera.series_s": "s",
    "genera.series_terms_out": "count",
    "series.mul_s": "s",
    "series.mul_calls": "count",
    "series.mul_pairs": "count",
    "series.invert_s": "s",
    "series.invert_calls": "count",
    "series.exp_s": "s",
    "series.exp_calls": "count",
    "series.bernoulli_s": "s",
    "series.bernoulli_calls": "count",
    "bundles.self_s": "s",
    "bundles.calls": "count",
    "manifolds.catalog_s": "s",
    "manifolds.evaluate_s": "s",
    "manifolds.evaluate_calls": "count",
    "manifolds.genus_class_s": "s",
    "statmech.ensemble_s": "s",
    "statmech.correspondence_s": "s",
    "statmech.geometric_s": "s",
    "statmech.geometric_terms": "count",
    "statmech.levels": "count",
    "spectral.report_s": "s",
    "spectral.zeta_det_s": "s",
    "spectral.log_gamma_s": "s",
    "spectral.log_gamma_calls": "count",
    "spectral.xi_s": "s",
    "spectral.pairing_s": "s",
}

Count = Callable[[Dict[str, float], tuple, dict, object], None]


def _calls(name: str) -> Count:
    def count(values, args, kwargs, result):
        values[name] += 1
    return count


def _terms_out(name: str) -> Count:
    def count(values, args, kwargs, result):
        values[name] += len(result.terms)
    return count


def _reduce(values, args, kwargs, result):
    values["symmetric.reduce_calls"] += 1
    values["symmetric.reduce_terms_in"] += len(args[0].terms)
    values["symmetric.reduce_terms_out"] += len(result.terms)


def _mul(values, args, kwargs, result):
    values["series.mul_calls"] += 1
    other = args[1]
    if hasattr(other, "terms"):
        values["series.mul_pairs"] += len(args[0].terms) * len(other.terms)


def _poly(seen: Dict[tuple, object]) -> Count:
    def count(values, args, kwargs, result):
        values["genera.poly_calls"] += 1
        key = args[:2]  # (kind, degree); every caller passes them positionally
        if seen.get(key) is result:
            values["genera.poly_hits"] += 1
        seen[key] = result
    return count


def _levels(values, args, kwargs, result):
    values["statmech.levels"] += len(args[0].levels)


def _geometric(values, args, kwargs, result):
    values["statmech.geometric_terms"] += result[1]


class Tracer:
    """Span accounting for one worker; ``values`` holds the per-layer sums."""

    def __init__(self):
        self.values: Dict[str, float] = defaultdict(float)
        self._children = [0.0]
        self._open: Dict[str, int] = defaultdict(int)

    def wrap(self, fn, self_metric: Optional[str], total_metric: Optional[str],
             count: Optional[Count]):
        values, children, open_spans = self.values, self._children, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            if total_metric:
                open_spans[total_metric] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                if self_metric:
                    values[self_metric] += elapsed - inner
                if total_metric:
                    open_spans[total_metric] -= 1
                    if not open_spans[total_metric]:
                        values[total_metric] += elapsed
            if count:
                count(values, args, kwargs, result)
            return result

        return span


def _targets(pkg):
    """(owner, attribute, self metric, total metric, counter) per wrapped name."""
    p = pkg
    bundles = [(p.bundles, name, "bundles.self_s", None, _calls("bundles.calls"))
               for name in ("chern_character", "sym_fock_character", "ext_fock_character",
                            "spinor_character", "lambda_minus1_dual", "fock_character_value")]
    bundles.append((p.bundles.RootModel, "build", "bundles.self_s", None, _calls("bundles.calls")))
    series = p.series.TruncatedSeries
    return bundles + [
        (p.cli, "main", "cli.self_s", None, None),
        (p.pairings.FactorExpression, "to_series", None, "pairings.lower_s",
         _terms_out("pairings.lower_terms_out")),
        (p.pairings, "pairing_index", "pairings.index_self_s", None, None),
        (p.pairings, "hrr_index", "pairings.hrr_self_s", None, None),
        (p.pairings, "verify_identity", "pairings.verify_self_s", None, None),
        (p.symmetric, "to_chern_basis", None, "symmetric.reduce_s", _reduce),
        (p.symmetric, "to_pontryagin_basis", None, "symmetric.reduce_s", _reduce),
        (p.genera, "genus_polynomial", None, "genera.poly_s", _poly({})),
        (p.genera, "genus_series", None, "genera.series_s", _terms_out("genera.series_terms_out")),
        (series, "__mul__", None, "series.mul_s", _mul),
        (series, "invert", None, "series.invert_s", _calls("series.invert_calls")),
        (series, "exp", None, "series.exp_s", _calls("series.exp_calls")),
        (p.series, "bernoulli_numbers", None, "series.bernoulli_s", _calls("series.bernoulli_calls")),
        (p.manifolds, "catalog", None, "manifolds.catalog_s", None),
        (p.manifolds, "evaluate_chern_polynomial", None, "manifolds.evaluate_s",
         _calls("manifolds.evaluate_calls")),
        (p.manifolds, "genus_class", None, "manifolds.genus_class_s", None),
        (p.statmech, "grand_ensemble", None, "statmech.ensemble_s", _levels),
        (p.statmech, "correspondence_check", None, "statmech.correspondence_s", None),
        (p.statmech, "bose_geometric_sum", None, "statmech.geometric_s", _geometric),
        (p.spectral, "build_spectral_report", None, "spectral.report_s", None),
        (p.spectral, "zeta_det", None, "spectral.zeta_det_s", None),
        (p.spectral, "log_gamma", None, "spectral.log_gamma_s", _calls("spectral.log_gamma_calls")),
        (p.spectral, "xi_formal", None, "spectral.xi_s", None),
        (p.spectral, "formal_pairing", None, "spectral.pairing_s", None),
    ]


def install(pkg) -> Tracer:
    """Wrap the layer functions of the imported package ``pkg``."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == pkg.__name__ or name.startswith(pkg.__name__ + "."))]
    for owner, attr, self_metric, total_metric, count in _targets(pkg):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, self_metric,
                                                         total_metric, count)))
            continue
        wrapped = tracer.wrap(raw, self_metric, total_metric, count)
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is raw:
                    setattr(holder, name, wrapped)
    return tracer
