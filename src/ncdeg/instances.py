"""Instance files: a small JSON container that parses to exactly one
library type and dumps back canonically.

Layout: {"field": {"p": prime}, "kind": ..., "payload": ...}.  Kinds and
their payloads:

  symbolic      rows, cols, terms (each term a list of [i, j, value])
  weighted      symbolic payload plus weights (one integer per term)
  bipartite     size, edges ([i, j] pairs), weights
  matroid-pair  a, b (dense vector rows), weights
  lines         dim, pairs (two spanning vectors each), weights
  bl            dim, maps (two rows each), p (fractions as "num/den")

Indices in files are 1-based; in memory everything is 0-based.  Sizes
beyond the budget of symbolic.check_budget are refused before anything
of that size is allocated, with a ParseError naming the field.  Matrix
entries are reduced mod p on the way in, and `dumps` emits sorted
triples, sorted edges, and reduced entries, so parse -> dumps is a
fixed point on its own output.
"""

import json
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .apps import BLDatum, BipartiteInstance, LineCollection, MatroidPairInstance
from .errors import ParseError, SizeBudgetExceeded
from .scalar import GF
from .symbolic import SymbolicMatrix, WeightedSymbolicMatrix, check_budget

KINDS = ("symbolic", "weighted", "bipartite", "matroid-pair", "lines", "bl")


class ParsedInstance(NamedTuple):
    kind: str
    F: object
    obj: object


def _fail(ctx, msg):
    raise ParseError(f"{ctx}: {msg}")


def _get(d, key, ctx, typ=None):
    if not isinstance(d, dict):
        _fail(ctx, "expected an object")
    if key not in d:
        _fail(ctx, f"missing key {key!r}")
    v = d[key]
    if typ is not None and (not isinstance(v, typ) or isinstance(v, bool)):
        _fail(f"{ctx}.{key}", f"expected {typ.__name__}")
    return v


def _is_int_list(v):
    return isinstance(v, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in v)


def _int_list(v, ctx, length=None):
    if not _is_int_list(v):
        _fail(ctx, "expected a list of integers")
    if length is not None and len(v) != length:
        _fail(ctx, f"expected {length} entries, got {len(v)}")
    return list(v)


def _index(x, ctx, upper, what):
    if not isinstance(x, int) or isinstance(x, bool):
        _fail(ctx, f"{what} index must be an integer")
    if not 1 <= x <= upper:
        _fail(ctx, f"{what} index {x} out of range 1..{upper}")
    return x - 1


def _term_matrix(triples, rows, cols, p, ctx):
    if not isinstance(triples, list):
        _fail(ctx, "expected a list of [i, j, value] triples")
    M = np.zeros((rows, cols), dtype=np.int64)
    for t, tr in enumerate(triples):
        tctx = f"{ctx}[{t}]"
        if not isinstance(tr, list) or len(tr) != 3:
            _fail(tctx, "expected [i, j, value]")
        i = _index(tr[0], tctx, rows, "row")
        j = _index(tr[1], tctx, cols, "column")
        v = tr[2]
        if not isinstance(v, int) or isinstance(v, bool):
            _fail(tctx, "value must be an integer")
        M[i, j] = (M[i, j] + v) % p
    return M


def _budget(n, m, ctx):
    """check_budget as a ParseError naming the field that sets n."""
    try:
        check_budget(n, m)
    except SizeBudgetExceeded as e:
        _fail(ctx, str(e))


def _number(x, ctx):
    """An int as it is, so int64 paths stay open to it, or a 'num/den'
    string as a Fraction."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
            _fail(ctx, f"bad fraction {x!r}")
        except ZeroDivisionError:
            _fail(ctx, f"zero denominator in {x!r}")
    _fail(ctx, "expected an integer or a 'num/den' string")


def _parse_symbolic(payload, F, weighted):
    rows = _get(payload, "rows", "payload", int)
    cols = _get(payload, "cols", "payload", int)
    if rows < 1 or cols < 1:
        _fail("payload", "rows and cols must be positive")
    terms_raw = _get(payload, "terms", "payload", list)
    if not terms_raw:
        _fail("payload.terms", "at least one term required")
    _budget(max(rows, cols), len(terms_raw), "payload.rows" if rows >= cols else "payload.cols")
    T = np.stack(
        [_term_matrix(tr, rows, cols, F.p, f"payload.terms[{k}]") for k, tr in enumerate(terms_raw)]
    )
    A = SymbolicMatrix(F, T)
    if not weighted:
        return A
    c = _int_list(_get(payload, "weights", "payload", list), "payload.weights", len(T))
    return WeightedSymbolicMatrix(A, c)


def _parse_bipartite(payload, F):
    n = _get(payload, "size", "payload", int)
    edges_raw = _get(payload, "edges", "payload", list)
    _budget(n, len(edges_raw), "payload.size")
    weights = _int_list(
        _get(payload, "weights", "payload", list), "payload.weights", len(edges_raw)
    )
    edges = []
    for t, e in enumerate(edges_raw):
        ctx = f"payload.edges[{t}]"
        if not isinstance(e, list) or len(e) != 2:
            _fail(ctx, "expected [i, j]")
        edges.append((_index(e[0], ctx, n, "row"), _index(e[1], ctx, n, "column")))
    return BipartiteInstance(n, edges, weights)


def _vector_rows(v, ctx, width=None):
    if not isinstance(v, list) or not v:
        _fail(ctx, "expected a non-empty list of vectors")
    out = []
    for t, row in enumerate(v):
        r = _int_list(row, f"{ctx}[{t}]", width)
        if width is None:
            width = len(r)
        out.append(r)
    return out, width


def _parse_matroid_pair(payload, F):
    a, width = _vector_rows(_get(payload, "a", "payload", list), "payload.a")
    b, _ = _vector_rows(_get(payload, "b", "payload", list), "payload.b", width)
    if len(a) != len(b):
        _fail("payload.b", f"expected {len(a)} vectors to match payload.a")
    _budget(width, len(a), "payload.a")
    weights = _int_list(
        _get(payload, "weights", "payload", list), "payload.weights", len(a)
    )
    return MatroidPairInstance(F, a, b, weights)


def _parse_lines(payload, F):
    n = _get(payload, "dim", "payload", int)
    pairs_raw = _get(payload, "pairs", "payload", list)
    _budget(n, len(pairs_raw), "payload.dim")
    weights = _int_list(
        _get(payload, "weights", "payload", list), "payload.weights", len(pairs_raw)
    )
    pairs = []
    for t, pr in enumerate(pairs_raw):
        ctx = f"payload.pairs[{t}]"
        if not isinstance(pr, list) or len(pr) != 2:
            _fail(ctx, "expected a pair of spanning vectors")
        a = _int_list(pr[0], f"{ctx}[0]", n)
        b = _int_list(pr[1], f"{ctx}[1]", n)
        pairs.append((a, b))
    return LineCollection(F, pairs, weights, n)


def _parse_bl(payload, F):
    n = _get(payload, "dim", "payload", int)
    maps_raw = _get(payload, "maps", "payload", list)
    _budget(n, len(maps_raw), "payload.dim")
    p_raw = _get(payload, "p", "payload", list)
    if len(p_raw) != len(maps_raw):
        _fail("payload.p", f"expected {len(maps_raw)} entries")
    maps = []
    for t, mp in enumerate(maps_raw):
        ctx = f"payload.maps[{t}]"
        if not isinstance(mp, list) or len(mp) != 2:
            _fail(ctx, "expected two rows")
        maps.append(
            np.array(
                [_int_list(mp[0], f"{ctx}[0]", n), _int_list(mp[1], f"{ctx}[1]", n)],
                dtype=np.int64,
            )
        )
    pv = [Fraction(_number(x, f"payload.p[{t}]")) for t, x in enumerate(p_raw)]
    return BLDatum(F, maps, pv, n)


def parse_text(text, name="<instance>", prime=None) -> ParsedInstance:
    """Parse an instance document; prime, when given, replaces field.p."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{name}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        _fail(name, "top level must be an object")
    field = _get(doc, "field", "instance")
    if prime is not None and isinstance(field, dict):
        field["p"] = prime
    p = _get(field, "p", "field", int)
    try:
        F = GF(p)
    except Exception as e:
        _fail("field.p", str(e))
    kind = _get(doc, "kind", "instance", str)
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    payload = _get(doc, "payload", "instance")
    try:
        if kind == "symbolic":
            obj = _parse_symbolic(payload, F, weighted=False)
        elif kind == "weighted":
            obj = _parse_symbolic(payload, F, weighted=True)
        elif kind == "bipartite":
            obj = _parse_bipartite(payload, F)
        elif kind == "matroid-pair":
            obj = _parse_matroid_pair(payload, F)
        elif kind == "lines":
            obj = _parse_lines(payload, F)
        else:
            obj = _parse_bl(payload, F)
    except ParseError:
        raise
    except Exception as e:
        raise ParseError(f"payload: {e}") from None
    return ParsedInstance(kind, F, obj)


def parse_instance(path, prime=None) -> ParsedInstance:
    """Read and parse an instance file; see parse_text for prime."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(str(e)) from None
    return parse_text(text, name=str(path), prime=prime)


def _triples(M):
    out = []
    for i, j in zip(*np.nonzero(M)):
        out.append([int(i) + 1, int(j) + 1, int(M[i, j])])
    return out


def _payload_symbolic(A, c=None):
    payload = {
        "rows": A.n_rows,
        "cols": A.n_cols,
        "terms": [_triples(A.term(k)) for k in range(A.n_terms)],
    }
    if c is not None:
        payload["weights"] = [int(x) for x in c]
    return payload


def dumps(inst: ParsedInstance) -> str:
    kind, F, obj = inst
    if kind == "symbolic":
        payload = _payload_symbolic(obj)
    elif kind == "weighted":
        payload = _payload_symbolic(obj.base, obj.c)
    elif kind == "bipartite":
        order = sorted(range(len(obj.edges)), key=lambda t: obj.edges[t])
        payload = {
            "size": obj.n,
            "edges": [[obj.edges[t][0] + 1, obj.edges[t][1] + 1] for t in order],
            "weights": [int(obj.weights[t]) for t in order],
        }
    elif kind == "matroid-pair":
        payload = {
            "a": obj.a_vectors.tolist(),
            "b": obj.b_vectors.tolist(),
            "weights": [int(x) for x in obj.weights],
        }
    elif kind == "lines":
        payload = {
            "dim": obj.n,
            "pairs": [[a.tolist(), b.tolist()] for a, b in obj.pairs],
            "weights": [int(x) for x in obj.weights],
        }
    elif kind == "bl":
        payload = {
            "dim": obj.n,
            "maps": [M.tolist() for M in obj.maps],
            "p": [str(x) for x in obj.p],
        }
    else:
        raise ParseError(f"unknown kind {kind!r}")
    doc = {"field": {"p": F.p}, "kind": kind, "payload": payload}
    return json.dumps(doc, indent=2) + "\n"
