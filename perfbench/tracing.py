"""Spans and counters around mobiuskit's public functions, from outside.

``Tracer.install`` rebinds, in every loaded ``mobiuskit`` module, each name
that refers to a public function of a traced module, so calls made through
that name (also calls inside the defining module) record a span.  Three
names get a stand-in object instead: ``numpy`` in ``enriched`` (to time
``linalg.cond`` and ``linalg.solve``), ``json`` in ``cli`` (``dumps``) and
``MetricSpace`` in ``fileio``.  ``uninstall`` restores every name, so the
library is untouched outside a traced pass.

A span is ``(name, start, end, parent index, command id)``; spans stay in
memory until the run writes them out.  A layer's self time is the time of
its spans minus the time covered by child spans, where a child span of a
layer that has no metric of its own counts as part of its nearest
reported ancestor.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from fractions import Fraction

TRACED_MODULES = ("fileio", "category", "incidence", "matrixrig", "infinite", "enriched", "cli")

# per-layer self-time metric -> the spans it covers
LAYERS = {
    "cli.render_s": ("cli.fine_json", "cli.coarse_json", "cli.matrix_json", "cli.name_str", "cli.render", "cli.json.dumps"),
    "fileio.load_category_s": ("fileio.load_category",),
    "category.validate_category_s": ("category.validate_category",),
    "incidence.fine_mobius_s": ("incidence.fine_mobius",),
    "incidence.verify_inverse_s": ("incidence.verify_inverse",),
    "incidence.patch_mobius_s": ("incidence.patch_mobius",),
    "incidence.coarse_mobius_s": ("incidence.coarse_mobius",),
    "infinite.patchwise_mobius_s": ("infinite.patchwise_mobius",),
    "matrixrig.invert_counting_matrix_s": ("matrixrig.invert_counting_matrix",),
    "fileio.load_metric_s": ("fileio.load_metric",),
    "enriched.metric_space_s": ("enriched.MetricSpace.from_coords", "enriched.MetricSpace.from_distances"),
    "enriched.magnitude_s": ("enriched.magnitude",),
    "enriched.linalg_cond_s": ("numpy.linalg.cond",),
    "enriched.linalg_solve_s": ("numpy.linalg.solve",),
}
SPAN_LAYER = {span: metric for metric, names in LAYERS.items() for span in names}
OTHER = "trace.other_s"  # spans outside every reported layer: argparse, dispatch, helpers

COUNTERS = (
    "category.arrows",
    "category.composable_pairs",
    "fileio.bytes_read",
    "infinite.patchwise_mobius_calls",
    "matrixrig.invert_counting_matrix_calls",
    "matrixrig.work_n3",
    "matrixrig.max_dim",
    "incidence.mu_max_bits",
    "enriched.points",
)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return abs(x).bit_length()
    return 0


def _count_mu(counts, args, result):
    if hasattr(result, "values") and isinstance(result.values, dict):
        values = result.values.values()
    elif hasattr(result, "matrix"):
        values = (x for row in result.matrix.rows for x in row)
    else:
        values = (result,)
    counts["incidence.mu_max_bits"] = max(counts["incidence.mu_max_bits"], max(map(_bits, values), default=0))


def _count_load(counts, args, result):
    counts["fileio.bytes_read"] += os.path.getsize(args[0])
    if hasattr(result, "compose"):
        counts["category.arrows"] += len(result.arrows)
        counts["category.composable_pairs"] += len(result.compose)
    if hasattr(result, "distances"):
        counts["enriched.points"] += len(result.points)


def _count_patchwise(counts, args, result):
    counts["infinite.patchwise_mobius_calls"] += 1
    _count_mu(counts, args, result)


def _count_inversion(counts, args, result):
    n = len(args[0])
    counts["matrixrig.invert_counting_matrix_calls"] += 1
    counts["matrixrig.work_n3"] += n**3
    counts["matrixrig.max_dim"] = max(counts["matrixrig.max_dim"], n)


HOOKS = {
    "fileio.load_category": _count_load,
    "fileio.load_metric": _count_load,
    "incidence.fine_mobius": _count_mu,
    "incidence.coarse_mobius": _count_mu,
    "incidence.patch_mobius": _count_mu,
    "infinite.patchwise_mobius": _count_patchwise,
    "matrixrig.invert_counting_matrix": _count_inversion,
}


class StandIn:
    """Forwards attribute reads to `target`, except for the overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.command = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1], self.command)
            # counted after the span ends, so the caller's self time pays for it
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        package = sys.modules["mobiuskit"]
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"mobiuskit.{short}"]
            for name, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(value)] = self.wrap(f"{short}.{name}", value)
        modules = [m for n, m in sys.modules.items() if n == "mobiuskit" or n.startswith("mobiuskit.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module, name, wrappers[id(value)])
        cli, enriched, fileio = package.cli, package.enriched, package.fileio
        self._rebind(cli, "render", self.wrap("cli.render", cli.render))
        self._rebind(cli, "json", StandIn(json, dumps=self.wrap("cli.json.dumps", json.dumps)))
        np = enriched.np
        linalg = StandIn(
            np.linalg,
            cond=self.wrap("numpy.linalg.cond", np.linalg.cond),
            solve=self.wrap("numpy.linalg.solve", np.linalg.solve),
        )
        self._rebind(enriched, "np", StandIn(np, linalg=linalg))
        space = fileio.MetricSpace
        self._rebind(fileio, "MetricSpace", StandIn(
            space,
            from_coords=self.wrap("enriched.MetricSpace.from_coords", space.from_coords),
            from_distances=self.wrap("enriched.MetricSpace.from_distances", space.from_distances),
        ))

    def _rebind(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def uninstall(self):
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    def reset(self):
        self.spans.clear()
        self.counts = dict.fromkeys(COUNTERS, 0)


def self_times(spans, elapsed: float) -> dict:
    """Self time per reported layer for one pass of `elapsed` seconds, plus
    `trace.other_s` and `trace.unspanned_s` (pass time outside every
    span); together they add up to `elapsed`."""
    totals = dict.fromkeys(list(LAYERS) + [OTHER, "trace.unspanned_s"], 0.0)
    covered = [0.0] * len(spans)
    owner = [OTHER] * len(spans)
    roots = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            roots += end - start
            owner[i] = SPAN_LAYER.get(name, OTHER)
        else:
            covered[parent] += end - start
            owner[i] = SPAN_LAYER.get(name, owner[parent])
    for i, (_, start, end, _, _) in enumerate(spans):
        totals[owner[i]] += (end - start) - covered[i]
    totals["trace.unspanned_s"] = elapsed - roots
    return totals
