"""Span tracing at the package's public-function boundaries.

The tracer wraps functions from outside the package: no file under
`src/` changes.  A module that did `from .mvsp import nc_rank` holds its
own binding, so each wrapper replaces every binding of the original
function in every loaded `ncdeg` module, not only the defining one.
Wrappers draw no random numbers and never touch their arguments.

Spans live in flat in-memory columns and are written out once, when the
run ends.  A span's self time is its duration minus the time its child
spans cover.
"""

import functools
import importlib
import sys
from time import perf_counter

# Layer -> traced functions.  "Class.method" names a method.
TRACED = {
    "linalg": ["matmul", "rank", "rand_mat", "rref", "nullspace", "inverse"],
    "mvsp": [
        "nc_rank",
        "mvsp_matroid_intersection",
        "mvsp_exhaustive",
        "mvsp_symmetric_exhaustive",
        "mvsp_bipartite",
        "bruhat",
        "block_diagonalize_witness",
    ],
    "degdet": [
        "hungarian_deg_det",
        "symmetric_hungarian",
        "deg_subdet",
        "optimize_Q",
        "step_sizes",
        "renormalize",
        "verify_dual",
    ],
    "ratfunc": ["RationalMatrix.matmul"],
    "apps": ["bl_membership_rank2"],
    "instances": ["parse_text"],
    "cli": ["main", "enc_dual", "dec_dual"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
ROOT = -1


def _resolve(layer, fn):
    """(owner object, attribute, original function), or None when the
    package no longer defines the name."""
    mod = importlib.import_module(f"ncdeg.{layer}")
    owner = mod
    parts = fn.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = getattr(owner, parts[-1], None)
    return None if orig is None else (owner, parts[-1], orig)


def code_keys():
    """cProfile stat keys (file, line, name) of every traced function,
    by span name, for functions the package still defines."""
    keys = {}
    for layer, fns in TRACED.items():
        for fn in fns:
            found = _resolve(layer, fn)
            if found is not None:
                code = found[2].__code__
                keys[f"{layer}.{fn}"] = (
                    code.co_filename,
                    code.co_firstlineno,
                    code.co_name,
                )
    return keys


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_col = []
        self.parent_col = []
        self.op_col = []
        self.start_col = []
        self.end_col = []
        self._stack = [ROOT]
        self._op = ROOT
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, orig):
        nid = self.name_ids[name]
        names, parents, ops = self.name_col, self.parent_col, self.op_col
        starts, ends, stack = self.start_col, self.end_col, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self._op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def op(self, op_id, fn, *args):
        """Run one op as a root span; its traced calls share `op_id`."""
        self._op = op_id
        idx = len(self.name_col)
        self.name_col.append(-1)
        self.parent_col.append(ROOT)
        self.op_col.append(op_id)
        self.start_col.append(0.0)
        self.end_col.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end_col[idx] = perf_counter()
            self.start_col[idx] = t0
            self._stack.pop()
            self._op = ROOT

    # -- installation ------------------------------------------------------

    def install(self, callers=()):
        """Wrap every traced function in every `ncdeg` module and in the
        given caller modules, which hold their own bindings too."""
        found = {
            f"{layer}.{fn}": _resolve(layer, fn)
            for layer, fns in TRACED.items()
            for fn in fns
        }
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "ncdeg" or key.startswith("ncdeg."))
        ] + list(callers)
        for name, target in found.items():
            if target is None:
                continue
            owner, attr, orig = target
            wrapper = self._wrap(name, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, obj, attr, orig, wrapper):
        setattr(obj, attr, wrapper)
        self._patches.append((obj, attr, orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self):
        """{span name: [calls, self seconds]} over every recorded span."""
        n = len(self.name_col)
        child = [0.0] * n
        for i in range(n):
            par = self.parent_col[i]
            if par != ROOT:
                child[par] += self.end_col[i] - self.start_col[i]
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for i in range(n):
            nid = self.name_col[i]
            if nid < 0:
                continue
            row = out[SPAN_NAMES[nid]]
            row[0] += 1
            row[1] += self.end_col[i] - self.start_col[i] - child[i]
        return out

    def calls_by_op(self):
        """{op id: {span name: calls}}."""
        out = {}
        for nid, op in zip(self.name_col, self.op_col):
            if nid >= 0:
                per = out.setdefault(op, {})
                name = SPAN_NAMES[nid]
                per[name] = per.get(name, 0) + 1
        return out

    def write(self, path):
        """One tab-separated line per span: op, span id, parent, name,
        start and end in seconds of perf_counter."""
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for i, nid in enumerate(self.name_col):
                name = "op" if nid < 0 else SPAN_NAMES[nid]
                fh.write(
                    f"{self.op_col[i]}\t{i}\t{self.parent_col[i]}\t{name}\t"
                    f"{self.start_col[i]!r}\t{self.end_col[i]!r}\n"
                )
