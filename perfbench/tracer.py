"""Outside-in span tracer for the bicomplex_lab modules.

Nothing in the package is edited.  ``Tracer.install`` walks every loaded
``bicomplex_lab.*`` module and replaces each module global that *is* one of
the functions listed in ``LAYERS`` (so aliases such as zigzag's
``de_rham as _de_rham_table`` are caught too) and the two methods in
``METHODS`` by a wrapper that records one span per call: name, start, end,
parent span and operation id.  Spans live in flat in-memory arrays and are
written out only when the benchmark asks for it.  ``uninstall`` puts every
original back.

A few boundaries also record a count of the work they were given:
``cells`` (input rows x cols) for the four echelon entry points, exact
multiply-adds for ``Matrix @ Matrix`` (rows of the left factor times the
non-zero entries of the right one, which is what the column-wise product
performs) and, for ``decompose``, the non-zero entries and the largest
numerator/denominator bit length of the returned ``basis_change``.  These
counts are taken after the span's end time is read, so they are charged to
the caller's self time; the benchmark reports the total tracing overhead.
"""

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

PACKAGE = "bicomplex_lab"

LAYERS = {
    "exactla": ("rank", "rce", "kernel_basis", "image_basis", "solve",
                "subspace_intersect", "subspace_sum", "preimage",
                "complete_basis", "quotient_dim"),
    "bicomplex": ("ensure_valid", "validate", "totalize"),
    "cohomology": ("de_rham", "dolbeault", "conj_dolbeault", "bott_chern",
                   "aeppli", "frolicher_pages", "natural_maps",
                   "all_tables"),
    "zigzag": ("decompose", "verify_decomposition",
               "count_cohomology_from_zigzags"),
    "checkers": ("frolicher_check", "non_ddbar_degrees",
                 "upper_bound_check", "char_minus_check",
                 "ddbar_lemma_check", "schweitzer_pairing_check",
                 "duality_check"),
    "models": ("from_structure_equations", "parse_structure_text",
               "random_bicomplex"),
    "clio": ("main", "parse_bicomplex_file", "emit_tables"),
}

# (layer, class, attribute, span name)
METHODS = (("exactla", "Matrix", "__matmul__", "exactla.Matrix.matmul"),
           ("exactla", "Subspace", "from_columns",
            "exactla.Subspace.from_columns"))

ECHELON_ENTRY_POINTS = ("exactla.rank", "exactla.rce", "exactla.kernel_basis",
                        "exactla.solve")

SPAN_COLUMNS = ("span", "parent", "op", "name", "start_ns", "end_ns", "work")


def _cells(_sid, args, _result):
    m = args[0]
    return m.rows * m.cols


def _madds(_sid, args, _result):
    left, right = args
    nonzero = sum(1 for col in right.columns() for x in col if not x.is_zero())
    return left.rows * nonzero


def _bits(q):
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names = []
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.errors = Counter()
        self.basis_bits = {}
        self.current_op = -1
        self._stack = [-1]
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        counters = {name: _cells for name in ECHELON_ENTRY_POINTS}
        counters["zigzag.decompose"] = self._basis_stats
        wrappers = {}
        for layer, funcs in LAYERS.items():
            mod = modules[f"{PACKAGE}.{layer}"]
            for func in funcs:
                label = f"{layer}.{func}"
                original = getattr(mod, func)
                wrappers[id(original)] = (original, self._wrap(
                    label, layer, original, counters.get(label)))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, hit[1])
        for layer, cls_name, attr, label in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            count = _madds if attr == "__matmul__" else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(label, layer, raw.__func__,
                                                 count))
            else:
                wrapped = self._wrap(label, layer, raw, count)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def _wrap(self, label, layer, fn, count):
        idx = len(self.names)
        self.names.append(label)
        parent, op, name = self.parent, self.op, self.name
        start, end, work = self.start, self.end, self.work
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(name)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            name.append(idx)
            start.append(0)
            end.append(0)
            work.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if count is not None:
                work[sid] = count(sid, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _basis_stats(self, sid, _args, result):
        nonzero = 0
        bits = 0
        for m in result.basis_change.values():
            for col in m.columns():
                for x in col:
                    if not x.is_zero():
                        nonzero += 1
                        bits = max(bits, _bits(x.re), _bits(x.im))
        self.basis_bits[sid] = bits
        return nonzero

    # -- aggregation ------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, work, self_ns and outermost total_ns.

        ``self_ns`` is a span's duration minus the durations of its direct
        child spans; ``total_ns`` sums only spans with no ancestor of the
        same name, so recursion is never counted twice.  Also returns the
        ``exactla.rank`` calls and cells whose direct parent is
        ``zigzag.decompose``, and the decompose basis statistics.
        """
        n = len(self.name)
        names, name, parent = self.names, self.name, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {label: {"calls": 0, "work": 0, "self_ns": 0, "total_ns": 0}
                 for label in names}
        rank_idx = names.index("exactla.rank")
        decompose_idx = names.index("zigzag.decompose")
        rank_calls = rank_cells = 0
        for i in range(n):
            idx = name[i]
            entry = stats[names[idx]]
            entry["calls"] += 1
            entry["work"] += self.work[i]
            entry["self_ns"] += dur[i] - child[i]
            p = parent[i]
            if idx == rank_idx and p >= 0 and name[p] == decompose_idx:
                rank_calls += 1
                rank_cells += self.work[i]
            while p >= 0 and name[p] != idx:
                p = parent[p]
            if p < 0:
                entry["total_ns"] += dur[i]
        decompose = {
            "rank_calls": rank_calls,
            "rank_cells": rank_cells,
            "basis_nnz": stats["zigzag.decompose"]["work"],
            "basis_max_bits": max(self.basis_bits.values(), default=0),
        }
        return stats, decompose

    def write_spans(self, path):
        """Write the spans as gzipped tab-separated rows, one per call."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\t".join(SPAN_COLUMNS) + "\n")
            for sid in range(len(self.name)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t"
                         f"{self.names[self.name[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\t{self.work[sid]}\n")
