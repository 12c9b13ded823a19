"""Spans around the library's public calls, recorded from outside the library.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, job id) in memory, and
``uninstall`` puts the originals back.  Every binding a caller uses is
patched: module attributes the CLI reaches through ``module.name``, names
the CLI imported directly (``cli.mobius_product``), and class-level
``NovikovSeries`` and ``FilteredComplex`` methods.  Self time is a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import defaultdict
from time import perf_counter


def _count_mul(counts, args, result):
    self, other = args
    if type(other) is type(self):
        counts["novikov.mul_term_pairs"] += len(self) * len(other)


def _count_load(counts, args, result):
    counts["serialize.in_bytes"] += os.path.getsize(args[0])


def _count_dump(counts, args, result):
    counts["serialize.written_bytes"] += os.path.getsize(args[1])


def _count_ech(counts, args, result):
    counts["orbits.ech_generators"] += len(result)


def _count_decompose(counts, args, result):
    counts["persistence.generators"] += len(args[0])
    counts["persistence.bars"] += len(result)


# (module, attribute path, span name, counter run after the span closes).
# Several bindings of one function share a span name.
TARGETS = (
    ("reebzeta.cli", "main", "cli.main", None),
    ("reebzeta.serialize", "load_json", "serialize.load", _count_load),
    ("reebzeta.serialize", "series_from_obj", "serialize.decode", None),
    ("reebzeta.serialize", "orbit_set_from_obj", "serialize.decode", None),
    ("reebzeta.serialize", "complex_from_obj", "serialize.decode", None),
    ("reebzeta.serialize", "morse_from_obj", "serialize.decode", None),
    ("reebzeta.serialize", "series_to_obj", "serialize.encode", None),
    ("reebzeta.serialize", "barcode_to_obj", "serialize.encode", None),
    ("reebzeta.serialize", "dump_json", "serialize.encode", _count_dump),
    ("reebzeta.novikov", "NovikovSeries.__init__", "novikov.init", None),
    ("reebzeta.novikov", "NovikovSeries.__mul__", "novikov.mul", _count_mul),
    ("reebzeta.novikov", "NovikovSeries.__rmul__", "novikov.mul", _count_mul),
    ("reebzeta.novikov", "NovikovSeries.__pow__", "novikov.pow", None),
    ("reebzeta.novikov", "NovikovSeries.inverse", "novikov.inverse", None),
    ("reebzeta.novikov", "exp", "novikov.exp", None),
    ("reebzeta.orbits", "zeta_exp_form", "orbits.exp_form", None),
    ("reebzeta.orbits", "zeta_product_form", "orbits.product_form", None),
    ("reebzeta.orbits", "zeta_ech_form", "orbits.ech_form", None),
    ("reebzeta.orbits", "ech_generators", "orbits.ech_generators", _count_ech),
    ("reebzeta.orbits", "zeta_good_orbits", "orbits.good_orbits", None),
    ("reebzeta.mobius", "mobius_product", "mobius.product", None),
    ("reebzeta.cli", "mobius_product", "mobius.product", None),
    ("reebzeta.persistence", "FilteredComplex.validate", "persistence.validate", None),
    ("reebzeta.persistence", "barcode_decompose", "persistence.decompose", _count_decompose),
    ("reebzeta.persistence", "zeta_persistence", "persistence.zeta", None),
    ("reebzeta.domains", "toric_zeta", "domains.toric", None),
    ("reebzeta.domains", "s1_invariant_zeta", "domains.s1", None),
    ("reebzeta.domains", "distinguish_from_toric", "domains.distinguish", None),
)


def _owner(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans of one traced phase, kept in flat arrays, plus counters that
    are updated where the work happens."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job_of = array("l")
        self.counts = defaultdict(int)
        self.job = -1
        self._stack: list = []
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """fn recording a span per call; after(counts, args, result) runs
        once the span is closed."""
        nid = self._id(name)
        stack, counts = self._stack, self.counts
        name_id, start, end = self.name_id, self.start, self.end
        parent, job_of = self.parent, self.job_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, after in TARGETS:
            owner, attr = _owner(module_name, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self):
        """[(name, start, end, parent index, job id)] in recording order."""
        names = self.names
        return [(names[n], s, e, p, j) for n, s, e, p, j in
                zip(self.name_id, self.start, self.end, self.parent, self.job_of)]


def self_times(spans):
    """Self time of each span: its duration minus the measure of the union
    of its children's intervals, clipped to the span.  ``spans`` is a list
    of (name, start, end, parent index, job id); returns a list of floats
    in the same order."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
