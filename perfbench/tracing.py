"""Boundary spans around genuskit's public functions, and per-layer metrics.

The tracer replaces a function at the module attribute where the calling
layer looks it up, so the program itself is not edited.  Each call records
a span (name, start, end, parent span, query id) plus a few exact sizes
read from its arguments and result.  Spans stay in memory until the pass
ends.  A name that is no longer bound is skipped, and its metrics then
read zero calls.

The layer of a span is the genuskit module that defines the called
function: ``cli``, ``atoms``, ``orders``, ``cosets``, ``matrices`` or
``rings``.  A layer's self time is its spans' time minus the time of their
child spans, so the self times of all layers add up to the root spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

from oracle import gl_order, sign_count, totient

# (module where the caller looks the name up, attribute)
TARGETS = (
    ("genuskit.cli", "main"),
    ("genuskit.cli", "genus"),
    ("genuskit.cli", "genus_relative"),
    ("genuskit.cli", "genus_of_atom"),
    ("genuskit.cli", "enumerate_gl"),
    ("genuskit.cli", "stable_image"),
    ("genuskit.cli", "load_order_spec"),
    ("genuskit.atoms", "genus"),
    ("genuskit.orders", "genus_relative"),
    ("genuskit.orders", "double_coset_count"),
    ("genuskit.orders", "subgroup_closure"),
    ("genuskit.orders", "totient"),
    ("genuskit", "genus"),
)


def _shape_info(args, result):
    spec = args[0]
    return {"m": spec.m, "blocks": list(spec.blocks)}


def _group_info(args, result):
    return {"group": len(args[0])}


def _matrix_info(args, result):
    return {"r": args[0], "m": args[1], "size": len(result)}


# exact sizes recorded per span name, read from arguments and results
INFO = {
    "orders.genus_relative": _shape_info,
    "cosets.double_coset_count": _group_info,
    "matrices.enumerate_gl": _matrix_info,
    "matrices.stable_image": _matrix_info,
}


class Tracer:
    """Collects spans for one worker pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.query: int | None = None
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        info = INFO.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None, "query": self.query}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if info is not None:
                span.update(info(args, result))
            return result

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans of ``name`` with no ancestor of the same name."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def pass_metrics(spans: list[dict]) -> dict:
    """Per-layer times and exact counts of one traced pass."""
    own = self_times(spans)
    layer_self: dict[str, float] = {}
    for s, t in zip(spans, own):
        layer = s["name"].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t

    def total(name):
        return sum(s["end"] - s["start"] for s in _outermost(spans, name))

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    shapes = {(s["m"], tuple(s["blocks"])) for s in spans
              if s["name"] == "orders.genus_relative"}
    block_levels = {(r, m) for m, blocks in shapes for r in blocks}
    ambient_units = 0
    hcoset_labels = 0
    for m, blocks in shapes:
        units = 1
        for r in blocks:
            units *= gl_order(r, m)
        ambient_units += units
        hcoset_labels += (totient(m) // sign_count(m)) ** len(blocks)

    gl_spans = [s for s in spans if s["name"] == "matrices.enumerate_gl"]
    stable_spans = [s for s in spans if s["name"] == "matrices.stable_image"]
    stable_scan = sum(s["m"] ** (s["r"] ** 2) for s in stable_spans)
    dc_calls = calls("cosets.double_coset_count")
    closure_calls = calls("cosets.subgroup_closure")
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {
        "cli.calls": calls("cli.main"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "atoms.self_s": layer_self.get("atoms", 0.0),
        "orders.self_s": layer_self.get("orders", 0.0),
        "orders.genus_relative_s": total("orders.genus_relative"),
        "orders.genus_calls": calls("orders.genus_relative"),
        "orders.ambient_units": ambient_units,
        "orders.hcoset_labels": hcoset_labels,
        "orders.ambient_scan": sum(m ** (r * r) for r, m in block_levels),
        "cosets.double_coset_count_s": total("cosets.double_coset_count"),
        "cosets.double_coset_calls": dc_calls,
        "cosets.group_elems": sum(s["group"] for s in spans
                                  if s["name"] == "cosets.double_coset_count"),
        "cosets.subgroup_closure_s": total("cosets.subgroup_closure"),
        "cosets.subgroup_closure_calls": closure_calls,
        "cosets.ambient_reuse": 1 - closure_calls / dc_calls if dc_calls else 0.0,
        "matrices.stable_image_s": total("matrices.stable_image"),
        "matrices.enumerate_gl_s": total("matrices.enumerate_gl"),
        "matrices.scan_candidates": sum(s["m"] ** (s["r"] ** 2) for s in gl_spans),
        "matrices.stable_yield": (
            sum(s["size"] for s in stable_spans) / stable_scan if stable_scan else 0.0
        ),
        "layers.self_sum_s": sum(layer_self.values()),
        "layers.root_s": roots,
    }


# Units of the per-layer metrics; "count" marks an exact count that must
# repeat across passes and runs, "ratio" a quotient of exact counts.
UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "atoms.self_s": "s",
    "orders.self_s": "s",
    "orders.genus_relative_s": "s",
    "orders.genus_calls": "count",
    "orders.ambient_units": "count",
    "orders.hcoset_labels": "count",
    "orders.ambient_scan": "count",
    "orders.subring_elems": "count",
    "orders.unit_elems": "count",
    "cosets.double_coset_count_s": "s",
    "cosets.double_coset_calls": "count",
    "cosets.group_elems": "count",
    "cosets.subgroup_closure_s": "s",
    "cosets.subgroup_closure_calls": "count",
    "cosets.ambient_reuse": "ratio",
    "matrices.stable_image_s": "s",
    "matrices.enumerate_gl_s": "s",
    "matrices.scan_candidates": "count",
    "matrices.stable_yield": "ratio",
    "trace.overhead_s": "s",
}


def combine(passes: list[dict]) -> tuple[dict, bool]:
    """Median of the times over traced passes; exact counts must agree.

    Returns the metrics and whether every pass gave the same counts and
    self times adding up to the root spans.
    """
    steady = True
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if UNITS.get(name) in ("count", "ratio"):
            steady &= len(set(values)) == 1
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    for p in passes:
        steady &= abs(p["layers.self_sum_s"] - p["layers.root_s"]) <= 1e-6 * max(
            1.0, p["layers.root_s"]
        )
    return out, steady
