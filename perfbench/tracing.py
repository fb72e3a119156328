"""Spans around the public calls into each focklattice layer.

The program carries no instrumentation of its own, so the traced run wraps
the functions at the names their callers look up (for example
``focklattice.classifier.batch_higher``, which the classifier calls, and
``focklattice.cli.classify``, which the CLI calls), records one span per
call in memory, and restores the originals afterwards.  Untraced runs never
import this module.

A span is ``[name, start, end, parent, counts]``: ``start``/``end`` are
``perf_counter`` readings, ``parent`` is the index of the enclosing span or
-1, and ``counts`` holds work counts read from the arguments and results at
the layer boundary.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _rho_many(args, kwargs, res):
    return {"points": _size(args[1])}


def _ap_probe(args, kwargs, res):
    return {"radii": len(args[2])}


def _lattice_build(args, kwargs, res):
    return {"points": len(res)}


def _g_prime(args, kwargs, res):
    return {"indices": _size(res)}


def _log_g(args, kwargs, res):
    return {"points": _size(args[1])}


def _pv_batch(args, kwargs, res):
    lat, indices = args[0], args[2]
    centres = _size(indices)
    return {"centres": centres,
            "centre_terms": centres * len(lat),   # computed: centres x points
            "unconverged": int(np.sum(~np.asarray(res[1], dtype=bool)))}


def _op_norm(args, kwargs, res):
    return {"points": int(sum(res.sizes))}


def _classify(args, kwargs, res):
    return {"conditions": len(res.reports)}


def _eval(args, kwargs, res):
    return {"points": _size(args[1])}


def _none(args, kwargs, res):
    return {}


# span name -> (call sites as "module:attribute" or "module:Class.method",
#               counter read at the boundary)
TARGETS = {
    "cli.trace_check": (["focklattice.cli:cmd_trace_check"], _none),
    "cli.reconstruct": (["focklattice.cli:cmd_reconstruct"], _none),
    "cli.op_norm": (["focklattice.cli:cmd_op_norm"], _none),
    "cli.ap_probe": (["focklattice.cli:cmd_ap_probe"], _none),
    "weights.rho_many": (["focklattice.weights:rho_many",
                          "focklattice.lattice:rho_many",
                          "focklattice.transforms:rho_many",
                          "focklattice.interpolate:rho_many"], _rho_many),
    "weights.estimate_t": (["focklattice.classifier:estimate_t"], _none),
    "weights.ap_probe": (["focklattice.cli:ap_probe",
                          "focklattice.classifier:ap_probe"], _ap_probe),
    "lattice.build": (["focklattice.cli:square_lattice",
                       "focklattice.cli:explicit_lattice"], _lattice_build),
    "lattice.shells_for": (["focklattice.cli:shells_for",
                            "focklattice.classifier:shells_for",
                            "focklattice.transforms:shells_for",
                            "focklattice.interpolate:shells_for"], _none),
    "multiplier.build": (["focklattice.cli:builtin_sigma_multiplier",
                          "focklattice.cli:user_multiplier"], _none),
    "multiplier.g_prime": (["focklattice.multiplier:Multiplier.g_prime_weighted"],
                           _g_prime),
    "multiplier.log_g": (["focklattice.multiplier:Multiplier.log_g"], _log_g),
    "multiplier.log_g_deflated": (
        ["focklattice.multiplier:Multiplier.log_g_deflated"], _log_g),
    "transforms.pv_batch": (["focklattice.classifier:batch_higher",
                             "focklattice.classifier:batch_modified_inf"],
                            _pv_batch),
    "transforms.op_norm": (["focklattice.cli:operator_norm_estimate"], _op_norm),
    "classifier.classify": (["focklattice.cli:classify"], _classify),
    "interpolate.eval": (["focklattice.interpolate:Interpolant.eval_weighted"],
                         _eval),
    "interpolate.verify": (["focklattice.cli:verify_interpolation"], _none),
}

ROOT = "cli.main"


class Recorder:
    """In-memory span list; the open-span stack gives each span its parent."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def span(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            rec[1] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            rec[4] = counter(args, kwargs, res)
            return res
        return wrapper

    def install(self):
        for name, (sites, counter) in TARGETS.items():
            for site in sites:
                modname, attr = site.split(":")
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self.span(name, orig, counter))

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def run_root(self, fn, *args):
        """Call fn under the root span that every other span nests in."""
        return self.span(ROOT, fn, _none)(*args)


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarise(spans):
    """Inclusive time, calls and counts per span name, plus self time per
    span name and per layer.  Inclusive time counts only outermost spans of
    a name, so a nested call of the same function is not counted twice."""
    selfs = self_times(spans)
    by_name = {}
    layer_self = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        agg = by_name.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                        "counts": {}})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + selfs[i]
        for k, v in counts.items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
    return by_name, layer_self


def parent_counts(spans, child: str, parent: str) -> int:
    """Number of `child` spans whose nearest traced ancestor is `parent`."""
    return sum(1 for s in spans if s[0] == child and s[3] >= 0
               and spans[s[3]][0] == parent)
