"""The benchmark's four closed-loop workloads.

Each workload makes a pool of instances from the seed (generation,
matrix builds and cache warm-up are set-up, not timed), runs one op on
one pool item at a time, and checks every op against a referee that runs
outside the timed region.  The pool is a few cycles, each one instance
per stratum (size, field, kind).  A run times whole cycles, so every run
weighs the strata alike, and it goes round the pool several times, so
each item is timed more than once.

The seed relabels a fixed base family rather than drawing new
structures: rows, columns and ground sets are permuted and vectors move
by random invertible maps, which leaves every Delta_l and the engines'
work unchanged.  Each seed so gives different inputs of the same
difficulty, and the spread between seeds measures the program and the
machine, not the luck of the draw.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from ncdeg import apps, linalg, mvsp
from ncdeg.apps import (
    BipartiteInstance,
    BLDatum,
    LineCollection,
    MatroidPairInstance,
    bl_membership_rank2,
    brute_force_matching_oracles,
    build_edmonds,
    build_matroid_intersection,
    build_matroid_matching,
    fmp_lp_oracle,
)
from ncdeg.degdet import (
    NEG_INF,
    hungarian_deg_det,
    optimize_Q,
    symmetric_hungarian,
    verify_dual,
)
from ncdeg.instances import ParsedInstance, dumps
from ncdeg.scalar import GF

from referee import max_weight_matchings


def value_list(prof):
    return tuple(
        None if prof.values[l] == NEG_INF else int(prof.values[l])
        for l in range(prof.n + 1)
    )


def dual_digest(prof):
    h = hashlib.sha256()
    for l, sol in sorted(prof.duals.items()):
        h.update(repr((l, list(map(str, sol.alpha)), list(map(str, sol.beta)))).encode())
        h.update(np.ascontiguousarray(sol.P, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(sol.Q, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def all_duals_verify(prof, target):
    return all(
        verify_dual(sol, target, l, prof.values[l]) for l, sol in prof.duals.items()
    )


def _invertible(rng, n, p):
    while True:
        G = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if linalg.rank(G, p) == n:
            return G


def bipartite_instance(base, relabel, n, n_edges, weights):
    cells = [(i, j) for i in range(n) for j in range(n)]
    edges = base.sample(cells, n_edges)
    ws = [base.randint(*weights) for _ in edges]
    rows, cols = relabel.sample(range(n), n), relabel.sample(range(n), n)
    moved = sorted(((rows[i], cols[j]), w) for (i, j), w in zip(edges, ws))
    return BipartiteInstance(n, [e for e, _ in moved], [w for _, w in moved])


def matroid_instance(base, relabel, F, n, m, weights):
    p = F.p
    a = np.array([[base.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64)
    b = np.array([[base.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64)
    ws = [base.randint(*weights) for _ in range(m)]
    order = relabel.sample(range(m), m)
    return MatroidPairInstance(
        F,
        (a[order] @ _invertible(relabel, n, p)) % p,
        (b[order] @ _invertible(relabel, n, p)) % p,
        [ws[k] for k in order],
    )


def line_collection(base, relabel, F, n, m, weights):
    """m lines in GF(p)^n; the relabelling maps the whole space by one
    invertible G and re-spans each line by its own invertible 2 x 2."""
    p = F.p
    pairs = []
    while len(pairs) < m:
        ab = np.array([[base.randrange(p) for _ in range(n)] for _ in range(2)], dtype=np.int64)
        if linalg.rank(ab, p) == 2:
            pairs.append(ab)
    ws = [base.randint(*weights) for _ in range(m)]
    G = _invertible(relabel, n, p)
    moved = []
    for k in relabel.sample(range(m), m):
        ab = (_invertible(relabel, 2, p) @ pairs[k] @ G) % p
        moved.append(((ab[0], ab[1]), ws[k]))
    return LineCollection(F, [ab for ab, _ in moved], [w for _, w in moved])


class Workload:
    name = ""
    cycles = 2  # distinct cycles in the pool
    spawns_children = False  # do ops run child processes
    trace_ops = 1  # fixed op count of a traced run
    profile_ops = 1  # ops re-run under cProfile to check span coverage

    def strata(self):
        raise NotImplementedError

    def make(self, base, relabel, stratum, index):
        """Pool item `index`: an instance drawn from `base`, relabelled
        by `relabel`."""
        raise NotImplementedError

    def setup(self, seed, workdir):
        """Pool of generated, built items, with caches warmed."""
        base = random.Random(f"{self.name}:base")
        relabel = random.Random(f"{self.name}:{seed}")
        strata = self.strata()
        pool = []
        for _ in range(self.cycles):
            for stratum in strata:
                pool.append(self.make(base, relabel, stratum, len(pool)))
        self.cycle_len = len(strata)
        self.workdir = workdir
        self.warm(strata)
        self._referee = {}
        return pool

    def warm(self, strata):
        """Fill the package's per-field caches the ops will hit."""
        for p in {s[0] for s in strata}:
            linalg.inv_table(p)

    def run_op(self, item, op_seed):
        raise NotImplementedError

    def check(self, item, result):
        """None when the op's result is correct, else the reason."""
        raise NotImplementedError

    def referee(self, item):
        key = item["index"]
        if key not in self._referee:
            self._referee[key] = self.compute_referee(item)
        return self._referee[key]


class BipartiteHungarian(Workload):
    """Edmonds matrices of random bipartite graphs; op = hungarian_deg_det
    plus verify_dual on every emitted dual."""

    name = "bipartite.hungarian"
    P = 65521
    DENSITY = 0.3  # exactly round(0.3 n^2) edges, so no stratum varies in size
    WEIGHTS = (-50, 50)  # fixed: the iteration count depends on it
    cycles = 4
    trace_ops = 7
    profile_ops = 1

    def strata(self):
        return list(range(8, 15))

    def make(self, base, relabel, n, index):
        inst = bipartite_instance(base, relabel, n, round(self.DENSITY * n * n), self.WEIGHTS)
        return {
            "index": index,
            "label": f"bipartite n={n} edges={len(inst.edges)} pool#{index}",
            "inst": inst,
            "Ac": build_edmonds(inst, GF(self.P)),
        }

    def warm(self, strata):
        linalg.inv_table(self.P)

    def run_op(self, item, op_seed):
        Ac = item["Ac"]
        prof = hungarian_deg_det(Ac, rng=random.Random(op_seed))
        return {
            "values": value_list(prof),
            "iterations": prof.meta["iterations"],
            "verified": all_duals_verify(prof, Ac),
            "duals": dual_digest(prof),
        }

    def compute_referee(self, item):
        inst = item["inst"]
        return max_weight_matchings(inst.n, inst.edges, inst.weights)

    def check(self, item, result):
        if not result["verified"]:
            return "a dual failed verify_dual"
        if result["values"] != self.referee(item):
            return f"values {result['values']} != referee {self.referee(item)}"
        return None


class MatroidCoords(Workload):
    """Linear matroid intersection; op = hungarian_deg_det, verify_dual on
    every dual, then optimize_Q at r_star."""

    name = "matroid.coords"
    PRIMES = (5, 65521)  # 8 and 3 Monte-Carlo trials per nc_rank call
    WEIGHTS = (-10, 10)
    trace_ops = 30
    profile_ops = 4

    def strata(self):
        # n = 6 is left out: its ops cost 0.3-1 s each, so a run held
        # under two cycles and its percentiles swung with the mix
        return [(p, n, m) for p in self.PRIMES for n in range(3, 6) for m in range(n, 2 * n + 1)]

    def make(self, base, relabel, stratum, index):
        p, n, m = stratum
        inst = matroid_instance(base, relabel, GF(p), n, m, self.WEIGHTS)
        return {
            "index": index,
            "label": f"matroid p={p} n={n} m={m} pool#{index}",
            "inst": inst,
            "Ac": build_matroid_intersection(inst),
        }

    def run_op(self, item, op_seed):
        Ac = item["Ac"]
        rng = random.Random(op_seed)
        prof = hungarian_deg_det(Ac, rng=rng)
        verified = all_duals_verify(prof, Ac)
        r_star = prof.meta["r_star"]
        return {
            "values": value_list(prof),
            "iterations": prof.meta["iterations"],
            "verified": verified,
            "duals": dual_digest(prof),
            "r_star": r_star,
            "u": tuple(optimize_Q(Ac, r_star, rng=rng)),
        }

    def compute_referee(self, item):
        inst = item["inst"]
        return tuple(
            None if v == NEG_INF else int(v)
            for v in (brute_force_matching_oracles(inst, l) for l in range(inst.n + 1))
        )

    def check(self, item, result):
        if not result["verified"]:
            return "a dual failed verify_dual"
        want = self.referee(item)
        if result["values"] != want:
            return f"values {result['values']} != brute force {want}"
        r, u = result["r_star"], result["u"]
        if sum(u) != r:
            return f"sum(u) = {sum(u)} != r_star = {r}"
        cu = sum(ci * ui for ci, ui in zip(item["inst"].weights, u))
        if cu != result["values"][r]:
            return f"c.u = {cu} != Delta_{r} = {result['values'][r]}"
        return None


class _MemoConstraints:
    """Shares fmp_lp_oracle's subspace constraints across the ell levels
    of one referee call; the oracle itself is called unchanged.  Without
    the helper (a later package version may drop it) the oracle simply
    recomputes them."""

    def __init__(self):
        self.orig = getattr(apps, "_fmp_constraints", None)

    def __enter__(self):
        if self.orig is not None:
            memo = {}
            orig = self.orig

            def shared(H):
                if id(H) not in memo:
                    memo[id(H)] = orig(H)
                return memo[id(H)]

            apps._fmp_constraints = shared

    def __exit__(self, *exc):
        if self.orig is not None:
            apps._fmp_constraints = self.orig


class LinesSymmetric(Workload):
    """Line collections over GF(2), GF(3); op = symmetric_hungarian,
    verify_dual on every dual, bl_membership_rank2 on the same lines."""

    name = "lines.symmetric"
    PRIMES = (2, 3)
    WEIGHTS = (-5, 5)
    cycles = 3
    trace_ops = 19
    profile_ops = 6

    def strata(self):
        # GF(3)^5 is left out: its 2664 subspaces make one op cost twenty
        # times the others, and a run would measure little else
        return [
            (p, n, m)
            for p in self.PRIMES
            for n in range(3, 6)
            for m in range(2, n + 2)
            if (p, n) != (3, 5)
        ]

    def make(self, base, relabel, stratum, index):
        p, n, m = stratum
        F = GF(p)
        H = line_collection(base, relabel, F, n, m, self.WEIGHTS)
        # uniform exponents satisfy the scaling equation 2 sum p = n, so
        # the membership test walks every subspace constraint
        datum = BLDatum(F, [np.stack(ab) for ab in H.pairs], [Fraction(n, 2 * m)] * m)
        return {
            "index": index,
            "label": f"lines p={p} n={n} m={m} pool#{index}",
            "H": H,
            "Ac": build_matroid_matching(H),
            "bl": datum,
        }

    def warm(self, strata):
        super().warm(strata)
        for p, n in {(s[0], s[1]) for s in strata}:
            mvsp.enumerate_subspaces(GF(p), n)

    def run_op(self, item, op_seed):
        Ac = item["Ac"]
        prof = symmetric_hungarian(Ac.base, Ac.c, rng=random.Random(op_seed))
        member, cert = bl_membership_rank2(item["bl"])
        return {
            "values": value_list(prof),
            "iterations": prof.meta["iterations"],
            "verified": all_duals_verify(prof, Ac),
            "duals": dual_digest(prof),
            "bl": (member, None if cert is None else cert["kind"]),
        }

    def compute_referee(self, item):
        H = item["H"]
        out = []
        with _MemoConstraints():
            for l in range(H.n + 1):
                v, _ = fmp_lp_oracle(H, ell=l)
                out.append(None if v == NEG_INF else int(2 * v))
        return tuple(out)

    def check(self, item, result):
        if not result["verified"]:
            return "a dual failed verify_dual"
        want = self.referee(item)
        if result["values"] != want:
            return f"values {result['values']} != 2 * fmp_lp_oracle {want}"
        return None


class CliSubdet(Workload):
    """Instance files through the command line, one child at a time:
    `ncdeg subdet FILE --json`, then `ncdeg verify REPORT FILE`."""

    name = "cli.subdet"
    spawns_children = True
    P = 65521
    WEIGHTS = (-5, 5)
    cycles = 4
    trace_ops = 4
    profile_ops = 2

    def strata(self):
        # n <= 4 keeps child start-up the larger part of an op, so a run
        # holds enough ops for its percentiles
        return [(kind, n) for n in range(3, 5) for kind in ("bipartite", "matroid-pair")]

    def make(self, base, relabel, stratum, index):
        kind, n = stratum
        F = GF(self.P)
        if kind == "bipartite":
            obj = bipartite_instance(base, relabel, n, round(0.5 * n * n), self.WEIGHTS)
        else:
            obj = matroid_instance(base, relabel, F, n, n + 1, self.WEIGHTS)
        return {
            "index": index,
            "label": f"cli {kind} n={n} pool#{index}",
            "parsed": ParsedInstance(kind, F, obj),
        }

    def setup(self, seed, workdir):
        pool = super().setup(seed, workdir)
        for item in pool:
            item["file"] = os.path.join(workdir, f"inst{item['index']}.json")
            with open(item["file"], "w") as fh:
                fh.write(dumps(item["parsed"]))
        return pool

    def warm(self, strata):
        linalg.inv_table(self.P)

    def run_op(self, item, op_seed):
        """Two child processes; the result carries each one's peak RSS."""
        report = os.path.join(self.workdir, f"report{item['index']}.json")
        sub_code, sub_rss = run_child(
            ["subdet", item["file"], "--json", "--seed", str(op_seed)], report
        )
        log = os.path.join(self.workdir, f"verify{item['index']}.txt")
        ver_code, ver_rss = run_child(["verify", report, item["file"]], log)
        with open(report) as fh:
            text = fh.read()
        with open(log) as fh:
            lines = fh.read().splitlines()
        return cli_result(text, sub_code, ver_code, lines, max(sub_rss, ver_rss))

    def run_op_inprocess(self, item, op_seed):
        """The same op through `ncdeg.cli.main` in this process."""
        import contextlib
        import io

        from ncdeg import cli

        report = os.path.join(self.workdir, f"report{item['index']}.json")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            sub_code = cli.main(["subdet", item["file"], "--json", "--seed", str(op_seed)])
        text = buf.getvalue()
        with open(report, "w") as fh:
            fh.write(text)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            ver_code = cli.main(["verify", report, item["file"]])
        return cli_result(text, sub_code, ver_code, buf.getvalue().splitlines(), 0.0)

    def compute_referee(self, item):
        kind, F, obj = item["parsed"]
        Ac = build_edmonds(obj, F) if kind == "bipartite" else build_matroid_intersection(obj)
        return value_list(hungarian_deg_det(Ac, rng=random.Random(0)))

    def check(self, item, result):
        if result["codes"][0] not in (0, 2):
            return f"subdet exited {result['codes'][0]}"
        if result["codes"][1] != 0 or result["last_line"] != "verified":
            return f"verify exited {result['codes'][1]}: {result['last_line']!r}"
        if result["values"] != self.referee(item):
            return f"values {result['values']} != hungarian_deg_det {self.referee(item)}"
        return None


def cli_result(report_text, sub_code, ver_code, verify_lines, rss_mb):
    try:
        report = json.loads(report_text)
        values = tuple(report["values"][str(l)] for l in range(len(report["values"])))
        iterations = report["iterations"]
    except (ValueError, KeyError, TypeError):
        values, iterations = None, 0
    return {
        "values": values,
        "iterations": iterations,
        "codes": (sub_code, ver_code),
        "last_line": verify_lines[-1] if verify_lines else "",
        "report": hashlib.sha256(report_text.encode()).hexdigest()[:16],
        "rss_mb": rss_mb,
    }


def run_child(args, out_path):
    """Run `python -m ncdeg.cli ARGS` with stdout to `out_path`; return
    (exit code, peak RSS in MiB) of that one child."""
    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "ncdeg.cli", *args], stdout=out, stderr=err
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024.0


WORKLOADS = {
    w.name: w for w in (BipartiteHungarian, MatroidCoords, LinesSymmetric, CliSubdet)
}
