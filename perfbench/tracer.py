"""Outside-in tracer for the edsx layers.

The package is not instrumented. Instead each layer's public functions are
resolved by name and replaced, by object identity, in every loaded edsx.*
namespace, because modules import each other's functions by name
(linalg holds `_rref_rows`, the kernel's rref calls its module-global
s_inv).  A target that no longer exists is reported as absent.  uninstall()
puts every original object back.

Spans (name, start, end, parent, query id) are kept in memory and written
out by write_spans() when the run ends.  A span's self time is its duration
minus the time its child spans cover; the tracer's own bookkeeping is
charged to no layer.  Call counters run millions of times inside spans and
would inflate their self time, so a tracer either times spans or counts
calls, never both; run.py uses one child process for each.
"""

import hashlib
import sys
import time

# (metric name, modules searched in order, attribute path, kind)
#   span:  timed span with calls, self and total time
#   count: call count only; these run millions of times
#   rref:  span plus shape, density and field class of the input rows
TARGETS = (
    ("kernel.rref", ("_kernel", "_fallback"), "rref", "rref"),
    ("kernel.s_inv", ("_kernel", "_fallback"), "s_inv", "span"),
    ("kernel.s_mul", ("_kernel", "_fallback"), "s_mul", "count"),
    ("kernel.s_submul", ("_kernel", "_fallback"), "s_submul", "count"),
    ("scalar.boxed", ("scalar",), "Scalar.__init__", "count"),
    ("scalar.parse", ("scalar",), "Scalar.parse", "span"),
    ("exterior.flatten", ("exterior",), "flatten", "span"),
    ("exterior.wedge", ("exterior",), "wedge", "span"),
    ("exterior.hodge", ("exterior",), "hodge", "span"),
    ("exterior.restrict", ("exterior",), "restrict", "span"),
    ("exterior.parse_form", ("exterior",), "parse_form", "span"),
    ("linalg.from_rows", ("linalg",), "Matrix.from_rows", "span"),
    ("linalg.transpose", ("linalg",), "Matrix.transpose", "span"),
    ("linalg.rref", ("linalg",), "rref", "span"),
    ("linalg.rank", ("linalg",), "rank", "span"),
    ("linalg.span_rank", ("linalg",), "span_rank", "span"),
    ("linalg.solve_affine", ("linalg",), "solve_affine", "span"),
    ("linalg.kernel_basis", ("linalg",), "kernel_basis", "span"),
    ("linalg.in_span", ("linalg",), "in_span", "span"),
    ("linalg.echelon_span", ("linalg",), "echelon_span", "span"),
    ("rep.equivariant_maps", ("rep",), "equivariant_maps", "span"),
    ("rep.invariants", ("rep",), "invariants", "span"),
    ("rep.casimir_decompose", ("rep",), "casimir_decompose", "span"),
    ("dga.check_operator", ("dga",), "check_operator", "span"),
    ("dga.z_spaces", ("dga",), "z_spaces", "span"),
    ("cartan.flag_test", ("cartan",), "flag_test", "span"),
    ("stability.stability", ("stability",), "stability", "span"),
    ("restriction.restrict_structure", ("restriction",),
     "restrict_structure", "span"),
    ("catalog.get_structure", ("catalog",), "get_structure", "span"),
    ("catalog.build", ("catalog",), "_build_su_even", "span"),
    ("catalog.build", ("catalog",), "_build_su_odd", "span"),
    ("catalog.build", ("catalog",), "_build_psu3", "span"),
    ("catalog.build", ("catalog",), "_build_so39", "span"),
    ("catalog.build", ("catalog",), "_build_stabilized", "span"),
)

# spans whose distinct inputs are counted, with a key made from the args
_KEYS = {
    "rep.equivariant_maps": lambda g: (
        g.name, g.n, repr([[str(x) for x in row] for m in g.basis
                           for row in m])),
    "dga.z_spaces": lambda s, op, params=None: (
        s.name, op, repr(sorted((k, str(v)) for k, v in
                                (params or {}).items()))),
}

def _rows_info(rows, ncols):
    """(nnz, radical?, key) of kernel rows: lists of mask -> rational."""
    nnz = 0
    radical = False
    h = hashlib.blake2b(repr(ncols).encode(), digest_size=16)
    for row in rows:
        cells = [(j, sorted(c.items())) for j, c in enumerate(row) if c]
        nnz += len(cells)
        if not radical:
            radical = any(k for _, items in cells for k, _ in items)
        h.update(repr(cells).encode())
    return nnz, radical, h.digest()


SPANS = ("span", "rref")
COUNTS = ("count",)
COUNT_METRICS = ("kernel.s_mul.calls", "kernel.s_submul.calls",
                 "scalar.boxed")


class Tracer:
    """Wraps the edsx layers of this process; install() then uninstall().

    kinds is SPANS (timed spans) or COUNTS (call counters only).
    """

    def __init__(self, kinds=SPANS):
        self.kinds = kinds
        self.spans = []         # [name, start, end, parent index, query id]
        self.stats = {}         # name -> [calls, self_s, total_s]
        self.counts = {}        # name -> calls
        self.keys = {}          # name -> set of input keys
        self.rref = {"radical_self_s": 0.0, "rational_self_s": 0.0,
                     "cells": 0, "nnz_in": 0}
        self.absent = []
        self.query = -1
        self.active = True
        self._stack = []        # open span indices
        self._child = []        # per span: time covered by its children
        self._restore = []      # (owner, attribute, original)

    # ------------------------------------------------------------ install

    def install(self):
        mods = {k: m for k, m in sys.modules.items()
                if (k == "edsx" or k.startswith("edsx.")) and m is not None}
        for name, where, path, kind in TARGETS:
            if kind not in self.kinds:
                continue
            found = self._resolve(mods, where, path)
            if found is None:
                self.absent.append("%s (%s)" % (name, path))
                continue
            owner, attr, raw = found
            if kind == "count":
                wrapper = self._counter(name, _unwrap(raw))
            else:
                wrapper = self._spanner(name, _unwrap(raw), kind)
            if isinstance(owner, type):
                # methods: patch the class attribute once
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._restore.append((mod, key, raw))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    @staticmethod
    def _resolve(mods, where, path):
        for modname in where:
            mod = mods.get("edsx." + modname)
            if mod is None:
                continue
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None:
                continue
            attr = parts[-1]
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
            else:
                raw = getattr(owner, attr, None)
            if raw is not None:
                return owner, attr, raw
        return None

    # ------------------------------------------------------------ wrappers

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, name, fn, kind):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        key_of = _KEYS.get(name)
        keys = self.keys.setdefault(name, set()) if key_of or kind == "rref" \
            else None
        spans, stack, child = self.spans, self._stack, self._child
        rref = self.rref
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            entered = clock()
            info = None
            if kind == "rref":
                rows, ncols = args[0], args[1]
                info = _rows_info(rows, ncols)
                keys.add(info[2])
                rref["cells"] += len(rows) * ncols
                rref["nnz_in"] += info[0]
            elif key_of is not None:
                keys.add(key_of(*args, **kwargs))
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent, self.query])
            child.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec = spans[idx]
                rec[1], rec[2] = start, end
                dur = end - start
                own = dur - child[idx]
                stats[0] += 1
                stats[1] += own
                stats[2] += dur
                if info is not None:
                    rref["radical_self_s" if info[1]
                         else "rational_self_s"] += own
                if parent >= 0:
                    # bookkeeping from entry to here is charged to no layer
                    child[parent] += clock() - entered

        return wrapper

    # ------------------------------------------------------------ output

    def call(self, qid, fn):
        """Run one query under a top-level "query" span."""
        self.query = qid
        try:
            return self._spanner("query", fn, "span")()
        finally:
            self.query = -1

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for name, start, end, parent, qid in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (name, start, end, parent, qid))

    def layer_metrics(self):
        """Per-layer metric values from the recorded spans and counts."""
        def stat(name, i):
            return self.stats.get(name, (0, 0.0, 0.0))[i]

        def distinct(name):
            calls = stat(name, 0)
            return len(self.keys.get(name, ())) / calls if calls else 0.0

        linalg_self = sum(v[1] for k, v in self.stats.items()
                          if k.startswith("linalg."))
        return {
            "kernel.rref.calls": stat("kernel.rref", 0),
            "kernel.rref.self_s": stat("kernel.rref", 1),
            "kernel.rref.radical.self_s": self.rref["radical_self_s"],
            "kernel.rref.rational.self_s": self.rref["rational_self_s"],
            "kernel.rref.cells": self.rref["cells"],
            "kernel.rref.nnz_in": self.rref["nnz_in"],
            "kernel.rref.distinct_ratio": distinct("kernel.rref"),
            "kernel.s_inv.calls": stat("kernel.s_inv", 0),
            "kernel.s_inv.self_s": stat("kernel.s_inv", 1),
            "kernel.s_mul.calls": self.counts.get("kernel.s_mul", 0),
            "kernel.s_submul.calls": self.counts.get("kernel.s_submul", 0),
            "scalar.boxed": self.counts.get("scalar.boxed", 0),
            "scalar.parse.self_s": stat("scalar.parse", 1),
            "exterior.flatten.calls": stat("exterior.flatten", 0),
            "exterior.flatten.self_s": stat("exterior.flatten", 1),
            "exterior.wedge.self_s": stat("exterior.wedge", 1),
            "exterior.hodge.self_s": stat("exterior.hodge", 1),
            "exterior.restrict.self_s": stat("exterior.restrict", 1),
            "exterior.parse_form.self_s": stat("exterior.parse_form", 1),
            "linalg.self_s": linalg_self,
            "linalg.rank.calls": stat("linalg.rank", 0),
            "linalg.span_rank.calls": stat("linalg.span_rank", 0),
            "linalg.solve_affine.calls": stat("linalg.solve_affine", 0),
            "rep.equivariant_maps.calls": stat("rep.equivariant_maps", 0),
            "rep.equivariant_maps.self_s": stat("rep.equivariant_maps", 1),
            "rep.equivariant_maps.total_s": stat("rep.equivariant_maps", 2),
            "rep.equivariant_maps.distinct_ratio":
                distinct("rep.equivariant_maps"),
            "rep.casimir_decompose.self_s": stat("rep.casimir_decompose", 1),
            "rep.invariants.self_s": stat("rep.invariants", 1),
            "dga.check_operator.self_s": stat("dga.check_operator", 1),
            "dga.z_spaces.calls": stat("dga.z_spaces", 0),
            "dga.z_spaces.self_s": stat("dga.z_spaces", 1),
            "dga.z_spaces.distinct_ratio": distinct("dga.z_spaces"),
            "cartan.flag_test.calls": stat("cartan.flag_test", 0),
            "cartan.flag_test.self_s": stat("cartan.flag_test", 1),
            "stability.stability.self_s": stat("stability.stability", 1),
            "restriction.restrict_structure.self_s":
                stat("restriction.restrict_structure", 1),
            "catalog.builds": stat("catalog.build", 0),
            "catalog.build_s": stat("catalog.build", 2),
        }


def _unwrap(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
        else raw
