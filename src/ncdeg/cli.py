"""Command-line surface.

Every run prints a report (a table, or canonical JSON with --json) that
is a pure function of (instance, seed, version).  Duals are always part
of the JSON report so that `ncdeg verify report.json instance.json` can
re-check feasibility and strong duality without trusting the original
run.  Exit codes: 0 computed, 2 computed but the headline value is -inf
or the membership verdict is negative, 1 any error.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .apps import (
    bl_membership_rank2,
    brute_force_matching_oracles,
    build_edmonds,
    build_matroid_intersection,
    build_matroid_matching,
    fmp_lp_oracle,
)
from .degdet import (
    DualSolution,
    NEG_INF,
    deg_subdet,
    hungarian_deg_det,
    symmetric_hungarian,
    verify_dual,
)
from .errors import NcdegError, ParseError
from .instances import ParsedInstance, parse_instance
from .mvsp import nc_rank
from .ratfunc import Poly, RatFn, RationalMatrix
from .symbolic import (
    Delta_blowup_oracle,
    RationalSymbolicMatrix,
    WeightedSymbolicMatrix,
    random_rank,
)

ENGINE_KINDS = ("symbolic", "weighted", "bipartite", "matroid-pair")


class _UsageError(NcdegError, ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# JSON encoding of values and duals


def enc_num(v):
    if v == NEG_INF:
        return None
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return int(v)


def dec_num(v, ctx="value"):
    if v is None:
        return NEG_INF
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{ctx}: {v!r} is not a fraction") from None
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ParseError(f"{ctx}: expected null, int, or 'num/den'")


def _enc_ratfn(f: RatFn):
    return [list(f.num.c), list(f.den.c)]


def _enc_matrix(M):
    if isinstance(M, RationalMatrix):
        return [[_enc_ratfn(x) for x in row] for row in M.rows]
    return M.tolist()


def _get(doc, key, ctx, kind=None):
    """doc[key] of a JSON object, or a ParseError naming the field."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{ctx}: missing field {key!r}")
    if kind is not None and not isinstance(doc[key], kind):
        raise ParseError(f"{ctx}.{key}: expected a {kind.__name__}")
    return doc[key]


def _is_int_list(v):
    return isinstance(v, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in v)


def _dec_matrix(data, F, mode, n, ctx):
    if not (isinstance(data, list) and len(data) == n and all(
        isinstance(row, list) and len(row) == n for row in data
    )):
        raise ParseError(f"{ctx}: expected a {n} x {n} matrix")
    if mode == "monomial":
        import numpy as np

        if not all(_is_int_list(row) for row in data):
            raise ParseError(f"{ctx}: expected integer entries")
        return np.array([[e % F.p for e in row] for row in data], dtype=np.int64)
    if not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int_list, e)) for row in data for e in row
    ):
        raise ParseError(f"{ctx}: expected [numerator, denominator] coefficient lists")

    def entry(i, j, e):
        den = Poly(F, e[1])
        if den.is_zero():
            raise ParseError(f"{ctx}[{i}][{j}]: zero denominator")
        return RatFn(Poly(F, e[0]), den)

    return RationalMatrix(F, [[entry(i, j, e) for j, e in enumerate(row)] for i, row in enumerate(data)])


def enc_dual(sol: DualSolution):
    return {
        "mode": sol.mode,
        "alpha": [enc_num(a) for a in sol.alpha],
        "beta": [enc_num(b) for b in sol.beta],
        "P": _enc_matrix(sol.P),
        "Q": _enc_matrix(sol.Q),
    }


def dec_dual(data, F) -> DualSolution:
    mode = _get(data, "mode", "dual")
    if mode not in ("monomial", "general"):
        raise ParseError(f"dual.mode: expected 'monomial' or 'general', got {mode!r}")
    alpha = [dec_num(a, "dual.alpha") for a in _get(data, "alpha", "dual", list)]
    beta = [dec_num(b, "dual.beta") for b in _get(data, "beta", "dual", list)]
    n = len(alpha)
    if len(beta) != n:
        raise ParseError(f"dual.beta: expected {n} entries like alpha, got {len(beta)}")
    P = _dec_matrix(_get(data, "P", "dual"), F, mode, n, "dual.P")
    Q = _dec_matrix(_get(data, "Q", "dual"), F, mode, n, "dual.Q")
    return DualSolution(alpha, P, beta, Q, mode, F)


# ---------------------------------------------------------------------------
# instance -> matrix adapters


def _weighted(inst: ParsedInstance) -> WeightedSymbolicMatrix:
    kind, F, obj = inst
    if kind == "weighted":
        return obj
    if kind == "symbolic":
        return WeightedSymbolicMatrix(obj, [0] * obj.n_terms)
    if kind == "bipartite":
        return build_edmonds(obj, F)
    if kind == "matroid-pair":
        return build_matroid_intersection(obj)
    if kind == "lines":
        return build_matroid_matching(obj)
    raise _UsageError(f"kind {kind!r} has no weighted matrix; use bl-member")


def _base_matrix(inst: ParsedInstance):
    kind, F, obj = inst
    if kind == "bl":
        return build_matroid_matching(obj.lines()).base
    return _weighted(inst).base


def _require_kind(inst, allowed, command):
    if inst.kind not in allowed:
        raise _UsageError(
            f"{command} expects kind in {{{', '.join(allowed)}}}, got {inst.kind!r}"
        )


# ---------------------------------------------------------------------------
# report assembly


def _report(args, inst, values, duals, iterations, guarantee, exit_code):
    return {
        "version": __version__,
        "command": args.command,
        "kind": inst.kind,
        "field": {"p": inst.F.p},
        "seed": args.seed,
        "trials": getattr(args, "trials", None),
        "values": values,
        "duals": duals,
        "iterations": iterations,
        "guarantee": guarantee,
        "exit": exit_code,
    }


def _profile_report(args, inst, prof, target_level):
    values = {str(l): enc_num(prof.values[l]) for l in range(prof.n + 1)}
    duals = {str(l): enc_dual(sol) for l, sol in sorted(prof.duals.items())}
    code = 2 if prof.values.get(target_level, 0) == NEG_INF else 0
    return _report(
        args,
        inst,
        values,
        duals,
        prof.meta["iterations"],
        "strong",
        code,
    )


def _print_report(report, as_json, out=None):
    out = out if out is not None else sys.stdout
    if as_json:
        out.write(json.dumps(report, indent=2) + "\n")
        return
    cmd = report["command"]
    out.write(f"ncdeg {cmd} (p={report['field']['p']}, seed={report['seed']})\n")
    vals = report["values"]
    if cmd in ("subdet", "hungarian", "oracle"):
        for l, v in vals.items():
            out.write(f"  Delta_{l} = {'-inf' if v is None else v}\n")
    elif cmd == "degdet":
        v = vals["deg_det"]
        out.write(f"  deg Det = {'-inf' if v is None else v}\n")
    elif cmd == "ncrank":
        out.write(f"  nc-rank = {vals['nc_rank']} ({vals['rows']}x{vals['cols']})\n")
    elif cmd == "fmm":
        for l, v in vals["curve"].items():
            out.write(f"  nu_{l} = {'-inf' if v is None else v}\n")
        out.write(f"  max weight = {vals['best']}\n")
    elif cmd == "bl-member":
        out.write(f"  member: {vals['member']}\n")
        if vals["certificate"] is not None:
            out.write(f"  certificate: {json.dumps(vals['certificate'])}\n")
    out.write(f"  guarantee: {report['guarantee']}\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ncrank(args):
    inst = parse_instance(args.instance, args.prime)
    A = _base_matrix(inst)
    rng = random.Random(args.seed)
    r = nc_rank(A, rng)
    ordinary = random_rank(A, random.Random(args.seed), args.trials)
    values = {
        "nc_rank": r,
        "rank": ordinary,
        "rows": A.n_rows,
        "cols": A.n_cols,
    }
    return _report(args, inst, values, {}, None, "monte-carlo", 0)


def _cmd_degdet(args):
    inst = parse_instance(args.instance, args.prime)
    _require_kind(inst, ENGINE_KINDS, "degdet")
    B = RationalSymbolicMatrix.from_weighted(_weighted(inst))
    prof = deg_subdet(B, random.Random(args.seed))
    v = prof.values[B.n]
    duals = {}
    if B.n in prof.duals:
        duals[str(B.n)] = enc_dual(prof.duals[B.n])
    return _report(
        args,
        inst,
        {"deg_det": enc_num(v)},
        duals,
        prof.meta["iterations"],
        "strong",
        2 if v == NEG_INF else 0,
    )


def _cmd_subdet(args):
    inst = parse_instance(args.instance, args.prime)
    _require_kind(inst, ENGINE_KINDS, "subdet")
    B = RationalSymbolicMatrix.from_weighted(_weighted(inst))
    prof = deg_subdet(B, random.Random(args.seed))
    return _profile_report(args, inst, prof, B.n)


def _cmd_hungarian(args):
    inst = parse_instance(args.instance, args.prime)
    _require_kind(inst, ENGINE_KINDS, "hungarian")
    Ac = _weighted(inst)
    prof = hungarian_deg_det(Ac, random.Random(args.seed))
    return _profile_report(args, inst, prof, prof.n)


def _cmd_fmm(args):
    inst = parse_instance(args.instance, args.prime)
    _require_kind(inst, ("lines",), "fmm")
    H = inst.obj
    A = build_matroid_matching(H)
    prof = symmetric_hungarian(A.base, H.weights, random.Random(args.seed))
    curve = {}
    best = Fraction(0)
    for l in range(prof.n + 1):
        v = prof.values[l]
        if v == NEG_INF:
            curve[str(l)] = None
        else:
            half = Fraction(int(v), 2)
            curve[str(l)] = enc_num(half)
            best = max(best, half)
    values = {"best": enc_num(best), "curve": curve}
    duals = {str(l): enc_dual(sol) for l, sol in sorted(prof.duals.items())}
    return _report(
        args,
        inst,
        values,
        duals,
        prof.meta["iterations"],
        "strong",
        0,
    )


def _cmd_bl_member(args):
    inst = parse_instance(args.instance, args.prime)
    _require_kind(inst, ("bl",), "bl-member")
    ok, cert = bl_membership_rank2(inst.obj)
    if cert is not None:
        cert = dict(cert)
        for key in ("lhs", "rhs"):
            if key in cert:
                cert[key] = enc_num(Fraction(cert[key]))
    values = {"member": ok, "certificate": cert}
    return _report(args, inst, values, {}, None, "strong", 0 if ok else 2)


def _cmd_oracle(args):
    inst = parse_instance(args.instance, args.prime)
    kind, F, obj = inst
    rng = random.Random(args.seed)
    if kind in ("bipartite", "matroid-pair"):
        n = obj.n
        curve = {str(l): enc_num(brute_force_matching_oracles(obj, l)) for l in range(n + 1)}
        top = curve[str(n)]
        return _report(args, inst, curve, {}, None, "exhaustive", 2 if top is None else 0)
    if kind == "lines":
        curve = {}
        for l in range(obj.n + 1):
            val, _ = fmp_lp_oracle(obj, ell=l)
            curve[str(l)] = enc_num(val if val == NEG_INF else 2 * val)
        top = curve[str(obj.n)]
        return _report(args, inst, curve, {}, None, "exhaustive", 2 if top is None else 0)
    if kind in ("symbolic", "weighted"):
        Ac = _weighted(inst).pad_square()
        n = Ac.base.n_rows
        curve = {}
        for l in range(n + 1):
            curve[str(l)] = enc_num(Delta_blowup_oracle(Ac, l, args.trials, rng))
        top = curve[str(n)]
        return _report(args, inst, curve, {}, None, "monte-carlo", 2 if top is None else 0)
    raise _UsageError(f"oracle does not handle kind {kind!r}")


def _verify_levels(report, n, target, expected, rank):
    """A check per reported level, where expected maps each level key to
    its value: level 0 is 0, a finite level carries a dual of side n that
    meets strong duality against target, and a -inf level lies above
    rank, the certified nc-rank, so a -inf claim is accepted exactly when
    true."""
    duals = _get(report, "duals", "report", dict)
    for key in duals:
        if key not in expected:
            raise ParseError(f"duals[{key}]: no reported value at this level")
    checks = []
    for key in sorted(expected, key=int):
        l, v = int(key), expected[key]
        if l == 0:
            ok = v == 0
        elif v == NEG_INF:
            ok = rank < l
        else:
            sol = dec_dual(duals[key], target.F) if key in duals else None
            if sol is not None and sol.n != n:
                raise ParseError(f"duals[{key}]: expected {n} entries in alpha, got {sol.n}")
            ok = sol is not None and verify_dual(sol, target, l, v)
        checks.append((f"level {l}", ok))
    return checks


def _cmd_verify(args):
    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except OSError as e:
        raise ParseError(str(e)) from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{args.report}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(report, dict):
        raise ParseError(f"{args.report}: expected a JSON object")
    seed, trials = report.get("seed", 0), report.get("trials")
    if not _is_int_list([seed]):
        raise ParseError("report: seed must be an integer")
    if trials is not None and not (_is_int_list([trials]) and trials > 0):
        raise ParseError("report: trials must be null or a positive integer")
    prime = args.prime
    if prime is None and isinstance(report.get("field"), dict):
        prime = report["field"].get("p")
    inst = parse_instance(args.instance, prime)
    cmd = report.get("command")
    values = _get(report, "values", "report", dict)
    if cmd in ("hungarian", "degdet", "subdet", "fmm"):
        target = _weighted(inst)
        base = target.base
        if cmd in ("degdet", "subdet"):
            target = RationalSymbolicMatrix.from_weighted(target)
        n = max(base.n_rows, base.n_cols)
        if cmd == "degdet":
            raw = {str(n): _get(values, "deg_det", "values")}
        elif cmd == "fmm":
            raw = _get(values, "curve", "values", dict)
        else:
            raw = values
        if not all(k.isdecimal() for k in raw):
            raise ParseError("values: level keys must be decimal")
        scale = 2 if cmd == "fmm" else 1  # fmm reports half the symmetric value
        expected = {k: scale * dec_num(v, f"values[{k}]") for k, v in raw.items()}
        rank = 0  # the nc-rank, needed only to check -inf levels
        if NEG_INF in expected.values():
            rank = nc_rank(base, random.Random(seed))
        checks = _verify_levels(report, n, target, expected, rank)
        if cmd == "fmm":
            best = dec_num(_get(values, "best", "values"), "values.best")
            top = max((v for v in expected.values() if v != NEG_INF), default=NEG_INF)
            checks.append(("best", scale * best == top))
    elif cmd in ("ncrank", "bl-member", "oracle"):
        sub = argparse.Namespace(command=cmd, instance=args.instance, prime=prime, seed=seed, trials=trials)
        redo = _DISPATCH[cmd](sub)
        checks = [("recomputation", redo["values"] == values)]
    else:
        raise ParseError(f"report has no verifiable command (got {cmd!r})")
    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        sys.stdout.write(f"  {name}: {'ok' if flag else 'FAIL'}\n")
    sys.stdout.write(("verified" if ok else "NOT verified") + "\n")
    return 0 if ok else 1


def _cmd_selftest(args):
    from .scalar import GF
    from .apps import BLDatum, LineCollection, fmm_max_weight
    import numpy as np

    failures = 0

    def check(name, cond):
        nonlocal failures
        sys.stdout.write(f"  {name}: {'ok' if cond else 'FAIL'}\n")
        if not cond:
            failures += 1

    F = GF(65521)
    e = np.eye(3, dtype=np.int64)
    tutte = [
        np.outer(e[i], e[j]) - np.outer(e[j], e[i])
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    from .symbolic import SymbolicMatrix

    A = SymbolicMatrix(F, [M % F.p for M in tutte])
    rng = random.Random(args.seed)
    check("triangle rank 2", random_rank(A, rng) == 2)
    check("triangle nc-rank 3", nc_rank(A, random.Random(args.seed)) == 3)

    Ac = WeightedSymbolicMatrix(A, [1, 1, 1])
    prof = hungarian_deg_det(Ac, rng=random.Random(args.seed))
    check(
        "triangle profile 0,1,2,3",
        [prof.values[l] for l in range(4)] == [0, 1, 2, 3],
    )
    check(
        "profile duals verify",
        all(
            verify_dual(prof.duals[l], Ac, l, prof.values[l])
            for l in prof.duals
        ),
    )

    F3 = GF(3)
    H = LineCollection(
        F3, [(e[0], e[1]), (e[0], e[2]), (e[1], e[2])], [1, 1, 1]
    )
    best, _ = fmm_max_weight(H, rng=random.Random(args.seed))
    check("triangle fmm 3/2", best == Fraction(3, 2))

    half = Fraction(1, 2)
    maps = [np.stack([e[0], e[1]]), np.stack([e[0], e[2]]), np.stack([e[1], e[2]])]
    ok1, _ = bl_membership_rank2(BLDatum(F3, maps, [half, half, half]))
    ok2, cert = bl_membership_rank2(
        BLDatum(F3, maps, [half, half, Fraction(3, 4)])
    )
    check("bl accept", ok1)
    check("bl reject with certificate", (not ok2) and cert is not None)

    sys.stdout.write(("selftest passed" if failures == 0 else "selftest FAILED") + "\n")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument surface


def _positive_int(text):
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


_FLAGS = {
    "seed": {"type": int, "default": 0},
    "prime": {"type": int, "default": None},
    "trials": {"type": _positive_int, "default": None},
    "json": {"action": "store_true"},
}


def _build_parser():
    """Each subcommand takes only the flags it reads: only ncrank and
    oracle draw Monte-Carlo trials, verify re-checks with the report's
    own seed and trials, selftest runs fixed instances."""
    parser = _Parser(prog="ncdeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, positional, flags):
        sp = sub.add_parser(name)
        for arg in positional:
            sp.add_argument(arg)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])

    for name in ("ncrank", "degdet", "subdet", "hungarian", "fmm", "bl-member", "oracle"):
        trials = ["trials"] if name in ("ncrank", "oracle") else []
        command(name, ["instance"], ["seed", "prime", *trials, "json"])
    command("verify", ["report", "instance"], ["prime"])
    command("selftest", [], ["seed"])
    return parser


_DISPATCH = {
    "ncrank": _cmd_ncrank,
    "degdet": _cmd_degdet,
    "subdet": _cmd_subdet,
    "hungarian": _cmd_hungarian,
    "fmm": _cmd_fmm,
    "bl-member": _cmd_bl_member,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        report = _DISPATCH[args.command](args)
    except NcdegError as e:
        sys.stderr.write(f"ncdeg: error: {e}\n")
        return 1
    _print_report(report, args.json)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
