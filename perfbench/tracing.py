"""Span tracer for the circlaw layers, installed from outside the package.

Every public function and method of each layer module is replaced by a
wrapper that records a span (name, layer, start, end, parent span, job
id), both in the defining module and in every circlaw module that
imported it by name. A few private helpers that other layers import by
name, or through which all carrier work flows, are wrapped too (see
EXTRA). Spans stay in memory; `layer_metrics` reduces them to per-layer
calls, errors and self time, and `write_spans` dumps them when the run
ends. Counters are taken at the same boundaries from the arguments and
results of the wrapped calls, so no file under src/ changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
import weakref
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "special",
    "harmonic",
    "line",
    "pseudo",
    "brownian",
    "fractional",
    "kernels",
    "montecarlo",
    "validation",
    "cli",
)

# private helpers that carry a layer's work or are imported by name elsewhere
EXTRA = {
    "harmonic": ("_trig_sum",),
    "pseudo": ("_grid_min",),
    "fractional": ("_space_time_coeffs",),
}

# counters reported next to the generic <layer>.calls/.self_s/.errors;
# each is documented in README.md with the end-to-end metric it should move
COUNTERS = (
    "harmonic.grid_term_points",
    "harmonic.scattered_term_points",
    "harmonic.sample_acceptance",
    "special.ml_points",
    "special.quad_calls",
    "line.quad_calls",
    "line.integration_warnings",
    "pseudo.points",
    "pseudo.route_divergence_warnings",
    "fractional.terms_built",
    "fractional.slow_decay_warnings",
    "brownian.terms_built",
    "kernels.terms_built",
    "montecarlo.draws",
    "montecarlo.ks_points",
    "validation.criteria",
    "cli.bytes_out",
)

_ML = ("mittag_leffler", "mittag_leffler_many")
_PSEUDO_POINTS = (
    "even_circle_density",
    "even_circle_density_wrapped",
    "odd_circle_density",
    "odd_circle_density_wrapped",
    "odd_circle_density_routes",
)
_MC_SAMPLERS = (
    "sample_stable_subordinator",
    "sample_inverse_subordinator",
    "sample_wrapped_bm",
    "simulate_planar_hit",
)
_WARNING_COUNTERS = {
    ("line", "IntegrationWarning"): "line.integration_warnings",
    ("pseudo", "RouteDivergenceWarning"): "pseudo.route_divergence_warnings",
    ("fractional", "SlowDecayWarning"): "fractional.slow_decay_warnings",
}


def _size(x) -> int:
    return int(np.size(x))


def _evenly_spaced(th) -> bool:
    th = np.atleast_1d(np.asarray(th, dtype=float))
    if th.size < 3:
        return False
    d = np.diff(th)
    return bool(np.all(np.abs(d - d[0]) <= 1e-9 * abs(d[0])))


class _CountingGenerator:
    """Delegating numpy Generator that counts uniform draws."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def uniform(self, low=0.0, high=1.0, size=None):
        self._counts["harmonic.sample_uniform_draws"] += 1 if size is None else int(np.prod(size))
        return self._gen.uniform(low, high, size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _CountingIntegrate:
    """Stand-in for a module's `scipy.integrate` reference that counts quad calls."""

    def __init__(self, integrate, counts, key):
        self._integrate = integrate
        self._counts = counts
        self._key = key

    def quad(self, *args, **kwargs):
        self._counts[self._key] += 1
        return self._integrate.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._integrate, name)


class Tracer:
    """Records spans and counters while installed; `uninstall` restores every patch."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, job, raised]
        self.counts: Counter = Counter()
        self.job = -1
        self.laws_seen: dict[tuple, weakref.ref] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        import circlaw.cli  # noqa: F401  (loads every layer module)

        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"circlaw.{layer}"]
            for name, obj in list(vars(mod).items()):
                public = not name.startswith("_")
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if public or name in EXTRA.get(layer, ()):
                        originals[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif public and inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
            integrate = getattr(mod, "integrate", None)
            key = f"{layer}.quad_calls"
            if isinstance(integrate, types.ModuleType) and key in COUNTERS:
                self._set(mod, "integrate", _CountingIntegrate(integrate, self.counts, key))
        for modname, mod in list(sys.modules.items()):
            if modname != "circlaw" and not modname.startswith("circlaw."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        return self

    def uninstall(self):
        for target, name, old in reversed(self._patches):
            setattr(target, name, old)
        self._patches.clear()

    def _set(self, target, name, new):
        # the raw namespace entry, so a classmethod is restored as one
        self._patches.append((target, name, vars(target)[name]))
        setattr(target, name, new)

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{cls.__name__}.{name}"
            if inspect.isfunction(raw):
                self._set(cls, name, self._wrap(layer, qual, raw))
            elif isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._wrap(layer, qual, raw.__func__)))

    def _wrap(self, layer, name, fn):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            span = [name, layer, 0.0, 0.0, parent, tracer.job, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            parent_layer = tracer.spans[parent][1] if parent >= 0 else None
            parent_name = tracer.spans[parent][0] if parent >= 0 else None
            if after is not None:
                after(tracer, args, kwargs, result, parent_layer, parent_name)
            _after_generic(tracer, layer, result, parent_layer)
            return result

        return traced

    # -- warnings ---------------------------------------------------------

    def on_warning(self, category_name: str):
        """Attribute a shown warning to the layer of the innermost open span."""
        if self._stack:
            layer = self.spans[self._stack[-1]][1]
            key = _WARNING_COUNTERS.get((layer, category_name))
            if key is not None:
                self.counts[key] += 1

    # -- reduction --------------------------------------------------------

    def layer_metrics(self) -> dict:
        n = len(self.spans)
        dur = np.fromiter((s[3] - s[2] for s in self.spans), float, n)
        child = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                child[s[4]] += dur[i]
        self_time = dur - child
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for i, s in enumerate(self.spans):
            out[f"{s[1]}.calls"] += 1
            out[f"{s[1]}.self_s"] += float(self_time[i])
            out[f"{s[1]}.errors"] += int(s[6])
        for key in COUNTERS:
            out[key] = int(self.counts.get(key, 0))
        proposed = self.counts.get("harmonic.sample_uniform_draws", 0) / 2
        accepted = self.counts.get("harmonic.sample_accepted", 0)
        out["harmonic.sample_acceptance"] = accepted / proposed if proposed else 0.0
        return out

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {nm: i for i, nm in enumerate(names)}
        doc = {
            "columns": ["name", "layer", "start_s", "end_s", "parent", "job", "raised"],
            "names": names,
            "layers": list(LAYERS),
            "spans": [
                [index[s[0]], LAYERS.index(s[1]), round(s[2], 7), round(s[3], 7), s[4], s[5], int(s[6])]
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


# -- counter hooks, keyed by wrapped name -----------------------------------


def _before_sample(tracer, args, kwargs):
    # sample(law, rng, size): hand it an rng that counts the proposals
    def counting(rng):
        gen = getattr(rng, "generator", rng)
        return types.SimpleNamespace(generator=_CountingGenerator(gen, tracer.counts))

    if len(args) >= 2:
        return (args[0], counting(args[1]), *args[2:]), kwargs
    return args, dict(kwargs, rng=counting(kwargs["rng"]))


def _after_sample(tracer, args, kwargs, result, parent_layer, parent_name):
    tracer.counts["harmonic.sample_accepted"] += _size(result)


def _after_trig_sum(tracer, args, kwargs, result, parent_layer, parent_name):
    cos_coeffs, thetas = args[1], args[3]
    work = _size(cos_coeffs) * _size(thetas)
    key = "harmonic.grid_term_points" if _evenly_spaced(thetas) else "harmonic.scattered_term_points"
    tracer.counts[key] += work


def _after_ml(tracer, args, kwargs, result, parent_layer, parent_name):
    if parent_name not in _ML:
        tracer.counts["special.ml_points"] += _size(result)


def _after_pseudo_point(tracer, args, kwargs, result, parent_layer, parent_name):
    if parent_layer != "pseudo":
        # (wrapped, abel) pairs are one point
        tracer.counts["pseudo.points"] += 1 if isinstance(result, tuple) else _size(result)


def _after_mc_sampler(tracer, args, kwargs, result, parent_layer, parent_name):
    if parent_layer != "montecarlo":
        tracer.counts["montecarlo.draws"] += _size(result)


def _after_ks(tracer, args, kwargs, result, parent_layer, parent_name):
    tracer.counts["montecarlo.ks_points"] += _size(args[0])


def _after_run_suite(tracer, args, kwargs, result, parent_layer, parent_name):
    tracer.counts["validation.criteria"] += len(result)


def _after_space_time_coeffs(tracer, args, kwargs, result, parent_layer, parent_name):
    tracer.counts["fractional.terms_built"] += _size(result)


def _after_generic(tracer, layer, result, parent_layer):
    # each law a layer returns counts its terms once, however many of the
    # layer's functions pass the same object up
    if layer not in ("fractional", "brownian", "kernels"):
        return
    rep = getattr(result, "representation", result)
    if type(rep).__name__ != "HarmonicLaw":
        return
    key = (layer, id(rep))
    seen = tracer.laws_seen.get(key)
    if seen is None or seen() is not rep:
        tracer.laws_seen[key] = weakref.ref(rep)
        tracer.counts[f"{layer}.terms_built"] += rep.n_terms


_BEFORE = {"sample": _before_sample}
_AFTER = {
    "sample": _after_sample,
    "_trig_sum": _after_trig_sum,
    "mittag_leffler": _after_ml,
    "mittag_leffler_many": _after_ml,
    "ks_statistic": _after_ks,
    "run_suite": _after_run_suite,
    "_space_time_coeffs": _after_space_time_coeffs,
    **{name: _after_pseudo_point for name in _PSEUDO_POINTS},
    **{name: _after_mc_sampler for name in _MC_SAMPLERS},
}
