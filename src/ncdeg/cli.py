"""Command-line surface.

Every run prints a report (a table, or canonical JSON with --json) that
is a pure function of (instance, seed, version).  The field is the
instance's field.p and every Monte-Carlo trial count is
default_trials(p), so --seed and --json are the only flags.  The engine
commands subdet and degdet run the field engine on the instance's
weighted matrix, and fmm the symmetric engine.  Their duals are always
part of the JSON report, every one monomial (field matrices P and Q),
so that `ncdeg verify report.json instance.json` can re-check each
dual's feasibility and objective without trusting the original run,
which proves each value an upper bound (see verify_dual); the rest of
the report must be what the command writes for that instance.
Exit codes: 0 computed, 2 computed but the headline value is -inf or the
membership verdict is negative, 1 any error.
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
    hungarian_deg_det,
    symmetric_hungarian,
    verify_dual,
)
from .errors import NcdegError, ParseError
from .instances import ParsedInstance, _get, _is_int_list, _number, parse_instance
from .mvsp import nc_rank
from .symbolic import Delta_blowup_oracle, WeightedSymbolicMatrix, random_rank

ENGINE_KINDS = ("symbolic", "weighted", "bipartite", "matroid-pair")
ENGINES = ("degdet", "subdet", "fmm")


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


def dec_num(v, ctx):
    """The number v stands for, refusing any form enc_num does not write:
    a 'num/den' string must be in lowest terms with den > 1."""
    x = NEG_INF if v is None else _number(v, ctx)
    if not _same(enc_num(x), v):
        raise ParseError(f"{ctx}: expected {json.dumps(enc_num(x))}, got {json.dumps(v)}")
    return x


def _dec_matrix(data, F, n, ctx):
    import numpy as np

    if not (isinstance(data, list) and len(data) == n and all(
        isinstance(row, list) and len(row) == n for row in data
    )):
        raise ParseError(f"{ctx}: expected a {n} x {n} matrix")
    if not all(_is_int_list(row) for row in data):
        raise ParseError(f"{ctx}: expected integer entries")
    return np.array([[e % F.p for e in row] for row in data], dtype=np.int64)


def enc_dual(sol: DualSolution):
    return {
        "mode": "monomial",
        "alpha": [enc_num(a) for a in sol.alpha],
        "beta": [enc_num(b) for b in sol.beta],
        "P": sol.P.tolist(),
        "Q": sol.Q.tolist(),
    }


def _dec_finite(data, ctx):
    """A list of finite numbers, each in the form enc_num writes; null,
    which dec_num reads as -inf, is refused."""
    return [_number(x, f"{ctx}[{i}]") if x is None else dec_num(x, f"{ctx}[{i}]") for i, x in enumerate(data)]


def dec_dual(data, F) -> DualSolution:
    mode = _get(data, "mode", "dual")
    if mode != "monomial":
        raise ParseError(f"dual.mode: expected 'monomial', got {mode!r}")
    alpha, beta = (_dec_finite(_get(data, key, "dual", list), f"dual.{key}") for key in ("alpha", "beta"))
    n = len(alpha)
    if len(beta) != n:
        raise ParseError(f"dual.beta: expected {n} entries like alpha, got {len(beta)}")
    P = _dec_matrix(_get(data, "P", "dual"), F, n, "dual.P")
    Q = _dec_matrix(_get(data, "Q", "dual"), F, n, "dual.Q")
    return DualSolution(alpha, P, beta, Q, F)


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


def _require_kind(inst, command):
    allowed = {"fmm": ("lines",), "bl-member": ("bl",)}.get(command, ENGINE_KINDS)
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
        "trials": None,  # no flag sets it; the key goes with the next report-format change
        "values": values,
        "duals": duals,
        "iterations": iterations,
        "guarantee": guarantee,
        "exit": exit_code,
    }


def _print_report(report, as_json):
    out = sys.stdout
    if as_json:
        out.write(json.dumps(report, indent=2) + "\n")
        return
    cmd = report["command"]
    out.write(f"ncdeg {cmd} (p={report['field']['p']}, seed={report['seed']})\n")
    vals = report["values"]
    if cmd in ("subdet", "oracle"):
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
    inst = parse_instance(args.instance)
    A = _base_matrix(inst)
    rank, ordinary = nc_rank(A, random.Random(args.seed)), random_rank(A, random.Random(args.seed))
    values = {"nc_rank": rank, "rank": ordinary, "rows": A.n_rows, "cols": A.n_cols}
    return _report(args, inst, values, {}, None, "monte-carlo", 0)


def _engine(cmd, Ac, rng):
    if cmd == "fmm":
        return symmetric_hungarian(Ac.base, Ac.c, rng)
    return hungarian_deg_det(Ac, rng)


def _levels(cmd, values, n):
    """The report's values from the levels l -> Delta_l in values: degdet
    keeps level n; fmm halves every level, as the symmetric engine
    doubles the weights, and its best is the largest half, at least 0 for
    the empty matching; the other commands keep every level."""
    if cmd == "degdet":
        return {"deg_det": enc_num(values[n])}
    if cmd != "fmm":
        return {str(l): enc_num(values[l]) for l in sorted(values, key=int)}
    half = {str(l): values[l] if values[l] == NEG_INF else Fraction(values[l], 2) for l in sorted(values, key=int)}
    return {"best": enc_num(max([0, *half.values()])), "curve": {l: enc_num(v) for l, v in half.items()}}


def _cmd_engine(args):
    """One engine run laid out by _levels.  degdet carries only the top
    dual."""
    cmd = args.command
    inst = parse_instance(args.instance)
    _require_kind(inst, cmd)
    prof = _engine(cmd, _weighted(inst), random.Random(args.seed))
    n = prof.n
    duals = {str(l): enc_dual(sol) for l, sol in sorted(prof.duals.items()) if cmd != "degdet" or l == n}
    code = _exit_code(cmd, prof.values[n])
    return _report(args, inst, _levels(cmd, prof.values, n), duals, prof.meta["iterations"], "strong", code)


def _exit_code(cmd, top):
    """fmm's headline, best, is never -inf, so it exits 0; the other
    commands with levels exit 2 when the top level is -inf."""
    return 2 if cmd != "fmm" and top == NEG_INF else 0


def _cmd_bl_member(args):
    inst = parse_instance(args.instance)
    _require_kind(inst, "bl-member")
    ok, cert = bl_membership_rank2(inst.obj)
    if cert is not None:
        cert = dict(cert)
        for key in ("lhs", "rhs"):
            if key in cert:
                cert[key] = enc_num(Fraction(cert[key]))
    values = {"member": ok, "certificate": cert}
    return _report(args, inst, values, {}, None, "strong", 0 if ok else 2)


def _cmd_oracle(args):
    inst = parse_instance(args.instance)
    kind, F, obj = inst
    if kind in ("bipartite", "matroid-pair"):
        curve, guarantee = [brute_force_matching_oracles(obj, l) for l in range(obj.n + 1)], "exhaustive"
    elif kind == "lines":
        lp = (fmp_lp_oracle(obj, ell=l)[0] for l in range(obj.n + 1))
        curve, guarantee = [v if v == NEG_INF else 2 * v for v in lp], "exhaustive"
    elif kind in ("symbolic", "weighted"):
        Ac, rng = _weighted(inst).pad_square(), random.Random(args.seed)
        curve = [Delta_blowup_oracle(Ac, l, rng=rng) for l in range(Ac.base.n_rows + 1)]
        guarantee = "monte-carlo"
    else:
        raise _UsageError(f"oracle does not handle kind {kind!r}")
    values = {str(l): enc_num(v) for l, v in enumerate(curve)}
    return _report(args, inst, values, {}, None, guarantee, _exit_code("oracle", curve[-1]))


def _same(a, b):
    """Equal as JSON, so that false is not 0 and 2.0 is not 2."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _expect_fields(report, want):
    """Refuse the report unless each key of want holds exactly that value,
    naming the first key that does not."""
    for key, value in want.items():
        if key not in report or not _same(report[key], value):
            got = json.dumps(report[key]) if key in report else "nothing"
            raise ParseError(f"report.{key}: expected {json.dumps(value)}, got {got}")


def _expect_keys(obj, keys, ctx):
    if sorted(obj) != sorted(keys):
        raise ParseError(f"{ctx}: expected the keys {', '.join(keys)}, got {', '.join(sorted(obj)) or 'none'}")


def _verify_levels(report, n, Ac, expected, rank):
    """A check per reported level, where expected maps each level key to
    its value: level 0 is 0, a finite level carries a dual of side n that
    meets strong duality against Ac, and a -inf level lies above
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
            sol = dec_dual(duals[key], Ac.F) if key in duals else None
            if sol is not None and sol.n != n:
                raise ParseError(f"duals[{key}]: expected {n} entries in alpha, got {sol.n}")
            ok = sol is not None and verify_dual(sol, Ac, l, v)
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
    cmd = report.get("command")
    if not (isinstance(cmd, str) and cmd in _DISPATCH):
        raise ParseError(f"report has no verifiable command (got {cmd!r}); expected one of {', '.join(_DISPATCH)}")
    inst = parse_instance(args.instance)
    _expect_fields(report, {"field": {"p": inst.F.p}, "trials": None})
    seed = report.get("seed")
    if not _is_int_list([seed]):
        raise ParseError("report.seed: expected an integer")
    values = _get(report, "values", "report", dict)
    if cmd in ENGINES:
        _require_kind(inst, cmd)
        Ac = _weighted(inst)
        n = max(Ac.n_rows, Ac.n_cols)
        levels = [str(l) for l in range(n + 1)]
        _expect_keys(values, {"degdet": ["deg_det"], "fmm": ["best", "curve"]}.get(cmd, levels), "values")
        if cmd == "degdet":
            raw, where = {str(n): values["deg_det"]}, "report.values.deg_det"
        elif cmd == "fmm":
            raw, where = _get(values, "curve", "values", dict), "report.values.curve[{}]"
            _expect_keys(raw, levels, "values.curve")
        else:
            raw, where = values, "report.values[{}]"
        scale = 2 if cmd == "fmm" else 1  # fmm reports half the symmetric value
        expected = {k: scale * dec_num(v, where.format(k)) for k, v in raw.items()}
        rank = 0  # the nc-rank, needed only to check -inf levels
        if NEG_INF in expected.values():
            rank = nc_rank(Ac.base, random.Random(seed))
        checks = _verify_levels(report, n, Ac, expected, rank)
        if cmd == "fmm":
            best = dec_num(values["best"], "report.values.best")
            checks.append(("best", enc_num(best) == _levels(cmd, expected, n)["best"]))
        code = _exit_code(cmd, expected[str(n)])
        envelope = {"version": __version__, "kind": inst.kind, "guarantee": "strong", "exit": code}
        iterations = report.get("iterations")  # only a rerun could check more than its form
        if type(iterations) is not int or iterations < 0:
            raise ParseError(f"report.iterations: expected a non-negative integer, got {json.dumps(iterations)}")
    else:
        redo = _DISPATCH[cmd](argparse.Namespace(command=cmd, instance=args.instance, seed=seed))
        checks = [("recomputation", _same(redo["values"], values))]
        envelope = {key: redo[key] for key in ("version", "kind", "guarantee", "exit", "iterations")}
    _expect_fields(report, envelope)
    return _print_checks(checks, "verified", "NOT verified")


def _cmd_selftest():
    """Fixed instances with known answers: the triangle's Tutte matrix
    over GF(65521), its three lines over GF(3) and a Brascamp-Lieb datum
    on them."""
    import numpy as np

    from .apps import BLDatum, LineCollection
    from .scalar import GF
    from .symbolic import SymbolicMatrix

    e = np.eye(3, dtype=np.int64)
    pairs = [(e[0], e[1]), (e[0], e[2]), (e[1], e[2])]
    F, F3, half = GF(65521), GF(3), Fraction(1, 2)
    A = SymbolicMatrix(F, [(np.outer(a, b) - np.outer(b, a)) % F.p for a, b in pairs])
    Ac = WeightedSymbolicMatrix(A, [1, 1, 1])
    prof = hungarian_deg_det(Ac, rng=random.Random(0))
    fmm = _engine("fmm", build_matroid_matching(LineCollection(F3, pairs, [1, 1, 1])), random.Random(0))
    maps = [np.stack(pair) for pair in pairs]
    member, _ = bl_membership_rank2(BLDatum(F3, maps, [half, half, half]))
    outside, cert = bl_membership_rank2(BLDatum(F3, maps, [half, half, Fraction(3, 4)]))
    checks = [
        ("triangle rank 2", random_rank(A, random.Random(0)) == 2),
        ("triangle nc-rank 3", nc_rank(A, random.Random(0)) == 3),
        ("triangle profile 0,1,2,3", [prof.values[l] for l in range(4)] == [0, 1, 2, 3]),
        ("profile duals verify", all(verify_dual(sol, Ac, l, prof.values[l]) for l, sol in prof.duals.items())),
        ("triangle fmm 3/2", _levels("fmm", fmm.values, fmm.n)["best"] == "3/2"),
        ("bl accept", member),
        ("bl reject with certificate", not outside and cert is not None),
    ]
    return _print_checks(checks, "selftest passed", "selftest FAILED")


def _print_checks(checks, passed, failed):
    """One line per check, then the verdict; exit 0 when all pass."""
    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        sys.stdout.write(f"  {name}: {'ok' if flag else 'FAIL'}\n")
    sys.stdout.write((passed if ok else failed) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument surface


_DISPATCH = {
    "ncrank": _cmd_ncrank,
    **dict.fromkeys(ENGINES, _cmd_engine),
    "bl-member": _cmd_bl_member,
    "oracle": _cmd_oracle,
}


def _build_parser():
    """A subcommand for each _DISPATCH key, taking an instance, --seed and
    --json; verify, which re-checks a report with the report's own seed;
    selftest, which runs fixed instances.  No flag sets the field or a
    trial count: the instance and default_trials(p) decide both."""
    parser = _Parser(prog="ncdeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        sp = sub.add_parser(name)
        sp.add_argument("instance")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true")
    sp = sub.add_parser("verify")
    sp.add_argument("report")
    sp.add_argument("instance")
    sub.add_parser("selftest")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "selftest":
            return _cmd_selftest()
        report = _DISPATCH[args.command](args)
    except NcdegError as e:
        sys.stderr.write(f"ncdeg: error: {e}\n")
        return 1
    _print_report(report, args.json)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
