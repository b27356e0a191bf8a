import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from ncdeg import cli, instances, mvsp
from ncdeg.apps import (
    BipartiteInstance,
    MatroidPairInstance,
    brute_force_matching_oracles,
    build_matroid_intersection,
)
from ncdeg.errors import ParseError
from ncdeg.scalar import GF
from ncdeg.symbolic import SymbolicMatrix, WeightedSymbolicMatrix


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def k3_bipartite_doc():
    return {
        "field": {"p": 65521},
        "kind": "bipartite",
        "payload": {
            "size": 3,
            "edges": [[i, j] for i in (1, 2, 3) for j in (1, 2, 3)],
            "weights": [1] * 9,
        },
    }


def diag_weighted_doc():
    return {
        "field": {"p": 5},
        "kind": "weighted",
        "payload": {
            "rows": 2,
            "cols": 2,
            "terms": [[[1, 1, 1]], [[2, 2, 1]]],
            "weights": [3, 2],
        },
    }


def k3_lines_doc():
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return {
        "field": {"p": 3},
        "kind": "lines",
        "payload": {
            "dim": 3,
            "pairs": [[e[0], e[1]], [e[0], e[2]], [e[1], e[2]]],
            "weights": [1, 1, 1],
        },
    }


def bl_doc(p_vec):
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return {
        "field": {"p": 3},
        "kind": "bl",
        "payload": {
            "dim": 3,
            "maps": [[e[0], e[1]], [e[0], e[2]], [e[1], e[2]]],
            "p": p_vec,
        },
    }


# ---------------------------------------------------------------------------
# instance files


def test_parse_minimal_symbolic(tmp_path):
    path = write(
        tmp_path,
        "one.json",
        {
            "field": {"p": 5},
            "kind": "symbolic",
            "payload": {"rows": 1, "cols": 1, "terms": [[[1, 1, 1]]]},
        },
    )
    inst = instances.parse_instance(path)
    assert inst.kind == "symbolic"
    assert isinstance(inst.obj, SymbolicMatrix)
    assert inst.obj.term(0).tolist() == [[1]]


def test_round_trip_all_kinds(tmp_path):
    docs = [
        {
            "field": {"p": 5},
            "kind": "symbolic",
            "payload": {
                "rows": 2,
                "cols": 3,
                "terms": [[[1, 1, 1], [2, 3, 9]], []],
            },
        },
        {
            "field": {"p": 5},
            "kind": "weighted",
            "payload": {
                "rows": 2,
                "cols": 2,
                "terms": [[[1, 1, 1]], [[2, 2, 3]]],
                "weights": [2, -1],
            },
        },
        k3_bipartite_doc(),
        {
            "field": {"p": 5},
            "kind": "matroid-pair",
            "payload": {"a": [[1, 2], [0, 1]], "b": [[1, 0], [6, 1]], "weights": [3, 1]},
        },
        k3_lines_doc(),
        bl_doc(["1/2", "1/2", "1/2"]),
    ]
    for doc in docs:
        path = write(tmp_path, "inst.json", doc)
        first = instances.dumps(instances.parse_instance(path))
        path2 = tmp_path / "canon.json"
        path2.write_text(first)
        second = instances.dumps(instances.parse_instance(str(path2)))
        assert first == second, doc["kind"]


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {"p": 5},\n  "kind": oops}')
    with pytest.raises(ParseError, match=r"bad\.json:2"):
        instances.parse_instance(str(bad))

    doc = {
        "field": {"p": 5},
        "kind": "symbolic",
        "payload": {"rows": 2, "cols": 2, "terms": [[[1, 3, 1]]]},
    }
    with pytest.raises(ParseError, match=r"terms\[0\]\[0\].*out of range"):
        instances.parse_text(json.dumps(doc))

    doc["payload"]["terms"] = [[[1, 1, 1]]]
    doc["kind"] = "mystery"
    with pytest.raises(ParseError, match="unknown kind"):
        instances.parse_text(json.dumps(doc))

    weighted = {
        "field": {"p": 5},
        "kind": "weighted",
        "payload": {"rows": 1, "cols": 1, "terms": [[[1, 1, 1]]], "weights": [1, 2]},
    }
    with pytest.raises(ParseError, match="weights"):
        instances.parse_text(json.dumps(weighted))

    with pytest.raises(ParseError, match="field"):
        instances.parse_text('{"kind": "symbolic", "payload": {}}')

    huge = k3_bipartite_doc()
    huge["field"]["p"] = 4294967311  # prime, beyond the 2^16 field bound
    with pytest.raises(ParseError, match="field.p"):
        instances.parse_text(json.dumps(huge))


def test_parse_bipartite_matches_builder(tmp_path):
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    inst = instances.parse_instance(path)
    assert isinstance(inst.obj, BipartiteInstance)
    Ac = cli._weighted(inst)
    assert isinstance(Ac, WeightedSymbolicMatrix)
    assert Ac.base.n_terms == 9 and Ac.c == [1] * 9


# ---------------------------------------------------------------------------
# subcommands


def test_hungarian_k3(tmp_path, capsys):
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    code, out = run(capsys, "subdet", path, "--seed", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["values"] == {"0": 0, "1": 1, "2": 2, "3": 3}
    assert report["guarantee"] == "strong"
    assert set(report["duals"]) == {"1", "2", "3"}


def test_ncrank_zero(tmp_path, capsys):
    path = write(
        tmp_path,
        "zero.json",
        {
            "field": {"p": 5},
            "kind": "symbolic",
            "payload": {"rows": 2, "cols": 2, "terms": [[]]},
        },
    )
    code, out = run(capsys, "ncrank", path, "--json")
    assert code == 0
    assert json.loads(out)["values"]["nc_rank"] == 0


def _no_pairs(doc):
    doc["payload"]["pairs"] = doc["payload"]["weights"] = []
    return doc


def _no_maps(doc):
    doc["payload"]["maps"] = doc["payload"]["p"] = []
    return doc


@pytest.mark.parametrize(
    "doc", [_no_pairs(k3_lines_doc()), _no_maps(bl_doc([]))], ids=["lines", "bl"]
)
def test_ncrank_of_empty_collection(tmp_path, capsys, doc):
    path = write(tmp_path, "empty.json", doc)
    code, out = run(capsys, "ncrank", path, "--json")
    assert code == 0
    values = json.loads(out)["values"]
    assert values == {"nc_rank": 0, "rank": 0, "rows": 3, "cols": 3}


def ones_weighted_doc():
    """The all-ones 2 x 2 matrix as one term: singular, so deg Det = -inf."""
    return {
        "field": {"p": 5},
        "kind": "weighted",
        "payload": {
            "rows": 2,
            "cols": 2,
            "terms": [[[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 2, 1]]],
            "weights": [0],
        },
    }


def test_degdet_singular_exit_two(tmp_path, capsys):
    path = write(tmp_path, "ones.json", ones_weighted_doc())
    code, out = run(capsys, "degdet", path, "--json")
    assert code == 2
    assert json.loads(out)["values"]["deg_det"] is None


@pytest.mark.parametrize(
    "doc",
    [
        k3_bipartite_doc(),
        {
            "field": {"p": 5},
            "kind": "matroid-pair",
            "payload": {"a": [[1, 0], [0, 1], [1, 1]], "b": [[1, 0], [1, 1], [0, 1]], "weights": [2, 1, 3]},
        },
        {
            "field": {"p": 3},
            "kind": "symbolic",
            "payload": {"rows": 2, "cols": 3, "terms": [[[1, 1, 1], [2, 3, 2]], [[1, 2, 1]]]},
        },
        diag_weighted_doc(),
        ones_weighted_doc(),
    ],
    ids=["k3-bipartite", "matroid-pair", "rectangular-symbolic", "diag-weighted", "singular-weighted"],
)
def test_degdet_report_carries_the_top_dual(tmp_path, capsys, doc):
    # degdet is subdet's top level: its value, its dual and its exit code
    path = write(tmp_path, "inst.json", doc)
    code, out = run(capsys, "degdet", path, "--json")
    report = json.loads(out)
    sub_code, sub_out = run(capsys, "subdet", path, "--json")
    sub = json.loads(sub_out)
    top = str(len(sub["values"]) - 1)
    assert report["values"] == {"deg_det": sub["values"][top]}
    assert report["duals"] == {k: v for k, v in sub["duals"].items() if k == top}
    assert all(dual["mode"] == "monomial" for dual in report["duals"].values())
    assert code == sub_code == report["exit"]
    assert verified(capsys, report, path, tmp_path)


def test_fmm_k3(tmp_path, capsys):
    path = write(tmp_path, "lines.json", k3_lines_doc())
    code, out = run(capsys, "fmm", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["values"]["best"] == "3/2"
    assert report["values"]["curve"] == {"0": 0, "1": "1/2", "2": 1, "3": "3/2"}


def test_bl_member_exit_codes(tmp_path, capsys):
    ok_path = write(tmp_path, "bl_ok.json", bl_doc(["1/2", "1/2", "1/2"]))
    code, out = run(capsys, "bl-member", ok_path, "--json")
    assert code == 0 and json.loads(out)["values"]["member"] is True

    bad_path = write(tmp_path, "bl_bad.json", bl_doc(["1/2", "1/2", "3/4"]))
    code, out = run(capsys, "bl-member", bad_path, "--json")
    assert code == 2
    report = json.loads(out)
    assert report["values"]["member"] is False
    assert report["values"]["certificate"]["kind"] in ("dimension", "subspace")


def test_verify_bl_member_recomputes_the_certificate(tmp_path, capsys):
    path = write(tmp_path, "bl_bad.json", bl_doc(["1/2", "1/2", "3/4"]))
    code, out = run(capsys, "bl-member", path, "--json")
    assert code == 2
    report = json.loads(out)
    assert report["values"]["certificate"]["kind"] == "dimension"
    code, captured = verify_edited(tmp_path, capsys, report, path, lambda r: None)
    assert code == 0
    assert captured.out.splitlines() == ["  recomputation: ok", "verified"]

    def forge(report):
        # same verdict, a certificate that proves nothing
        report["values"]["certificate"] = {"kind": "subspace", "basis": [[9, 9, 9]], "lhs": "100", "rhs": -7}

    code, captured = verify_edited(tmp_path, capsys, report, path, forge)
    assert code == 1
    assert captured.out.splitlines()[-1] == "NOT verified"


def test_oracle_matches_brute_force(tmp_path, capsys):
    doc = {
        "field": {"p": 65521},
        "kind": "bipartite",
        "payload": {
            "size": 2,
            "edges": [[1, 1], [1, 2], [2, 1], [2, 2]],
            "weights": [3, 1, 2, 4],
        },
    }
    path = write(tmp_path, "b.json", doc)
    code, out = run(capsys, "oracle", path, "--json")
    assert code == 0
    inst = BipartiteInstance(2, [(0, 0), (0, 1), (1, 0), (1, 1)], [3, 1, 2, 4])
    want = {str(l): brute_force_matching_oracles(inst, l) for l in range(3)}
    assert json.loads(out)["values"] == want


def test_oracle_lines_doubles_lp(tmp_path, capsys):
    path = write(tmp_path, "lines.json", k3_lines_doc())
    code, out = run(capsys, "oracle", path, "--json")
    assert code == 0
    assert json.loads(out)["values"] == {"0": 0, "1": 1, "2": 2, "3": 3}


@pytest.mark.parametrize(
    "weights, values",
    [([1 << 62] * 3, [0, 1 << 62, 1 << 63, 3 << 62]), ([1 << 63, -(1 << 70), 1 << 63], [0, 1 << 63, 1 << 64, (1 << 64) - (1 << 70)])],
)
def test_oracle_lines_stays_exact_beyond_int64(tmp_path, capsys, weights, values):
    # 2 c^t y leaves int64 on these weights; the curve stays twice fmm's
    doc = k3_lines_doc()
    doc["payload"]["weights"] = weights
    path = write(tmp_path, "wide.json", doc)
    code, out = run(capsys, "oracle", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["values"] == {str(l): v for l, v in enumerate(values)}
    curve = json.loads(run(capsys, "fmm", path, "--json")[1])["values"]["curve"]
    assert report["values"] == {l: 2 * Fraction(v) for l, v in curve.items()}
    assert verified(capsys, report, path, tmp_path)


def test_oracle_weighted_verifies(tmp_path, capsys):
    path = write(tmp_path, "diag.json", diag_weighted_doc())
    code, out = run(capsys, "oracle", path, "--json", "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert report["values"] == {"0": 0, "1": 3, "2": 5}
    assert report["guarantee"] == "monte-carlo"
    assert verified(capsys, report, path, tmp_path)


def test_oracle_small_field_wide_weights_is_fast(tmp_path, capsys):
    # level 4 takes deg det of 12 x 12 matrices with 301 coefficients over
    # GF(3); column reduction answers in well under a second
    doc = {
        "field": {"p": 3},
        "kind": "weighted",
        "payload": {
            "rows": 4,
            "cols": 4,
            "terms": [
                [[1, 2, 1], [2, 2, 2], [3, 4, 1]],
                [[1, 3, 1], [2, 1, 2], [3, 3, 2], [4, 1, 2], [4, 3, 1], [4, 4, 2]],
                [[1, 1, 1], [1, 4, 1], [2, 2, 2], [3, 2, 1], [4, 2, 2]],
            ],
            "weights": [0, 150, 300],
        },
    }
    path = write(tmp_path, "wide.json", doc)
    start = time.perf_counter()
    code, out = run(capsys, "oracle", path, "--json")
    assert time.perf_counter() - start < 10
    assert code == 0
    report = json.loads(out)
    exact = json.loads(run(capsys, "subdet", path, "--json")[1])["values"]
    assert all(report["values"][l] <= v for l, v in exact.items())
    assert verified(capsys, report, path, tmp_path)


# ---------------------------------------------------------------------------
# verification loop and determinism


def test_verify_hungarian_report(tmp_path, capsys):
    # hungarian was subdet under another name; verify refuses its old
    # reports and lists the commands it accepts
    report, path = report_and_instance(tmp_path, capsys, "subdet")
    code, captured = verify_edited(tmp_path, capsys, report, path, lambda r: r.update(command="hungarian"))
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        "ncdeg: error: report has no verifiable command (got 'hungarian'); "
        "expected one of ncrank, degdet, subdet, fmm, bl-member, oracle\n"
    )


def test_verify_subdet_report(tmp_path, capsys):
    report, path = report_and_instance(tmp_path, capsys, "subdet")
    assert report["values"] == {"0": 0, "1": 3, "2": 5}
    assert verified(capsys, report, path, tmp_path)
    report["values"]["2"] = 99
    assert not verified(capsys, report, path, tmp_path)


def report_and_instance(tmp_path, capsys, command):
    path = write(tmp_path, "diag.json", diag_weighted_doc())
    code, out = run(capsys, command, path, "--json")
    assert code == 0
    return json.loads(out), path


def verify_edited(tmp_path, capsys, report, path, edit):
    edit(report)
    report_path = write(tmp_path, "edited.json", report)
    code = cli.main(["verify", report_path, path])
    return code, capsys.readouterr()


def _bogus_mode(report):
    for dd in report["duals"].values():
        dd["mode"] = "bogus"


def _no_alpha(report):
    del report["duals"]["1"]["alpha"]


def _null_alpha(report):
    report["duals"]["1"]["alpha"][0] = None


def _null_beta(report):
    report["duals"]["2"]["beta"][1] = None


def _dual_not_object(report):
    report["duals"]["1"] = 1


def _small_P(report):
    report["duals"]["1"]["P"] = [[1]]


def _extra_level(report):
    report["duals"]["7"] = report["duals"]["1"]


def _drop_top_level(report):
    del report["values"]["2"], report["duals"]["2"]


def _no_levels(report):
    report["values"], report["duals"] = {}, {}


def _extra_value(report):
    report["values"]["deg_det_2"] = 0


def _list_seed(report):
    report["seed"] = [1]


def _bool_seed(report):
    report["seed"] = True


@pytest.mark.parametrize(
    "command, edit",
    [
        ("subdet", _bogus_mode),
        ("subdet", _no_alpha),
        ("subdet", _null_alpha),
        ("subdet", _null_beta),
        ("subdet", _dual_not_object),
        ("subdet", _small_P),
        ("subdet", _extra_level),
        ("subdet", _drop_top_level),
        ("subdet", _no_levels),
        ("degdet", _extra_value),
        ("ncrank", _list_seed),
        ("subdet", _bool_seed),
    ],
)
def test_verify_rejects_malformed_report(tmp_path, capsys, command, edit):
    report, path = report_and_instance(tmp_path, capsys, command)
    code, captured = verify_edited(tmp_path, capsys, report, path, edit)
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ncdeg: error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["subdet"])
def test_verify_flags_corrupted_dual(tmp_path, capsys, command):
    report, path = report_and_instance(tmp_path, capsys, command)

    def corrupt(report):
        report["duals"]["1"]["alpha"][0] += 100

    code, captured = verify_edited(tmp_path, capsys, report, path, corrupt)
    assert code == 1
    assert captured.out.splitlines()[-1] == "NOT verified"


@pytest.mark.parametrize("command", ["subdet"])
def test_verify_rejects_singular_P(tmp_path, capsys, command):
    # P = 0 clears every support constraint, so without an invertibility
    # check any claimed value would verify
    report, path = report_and_instance(tmp_path, capsys, command)

    def forge(report):
        dual = report["duals"]["1"]
        dual["P"] = [[0, 0], [0, 0]]
        dual["alpha"][1] = -99 - dual["beta"][1]
        report["values"]["1"] = 99

    code, captured = verify_edited(tmp_path, capsys, report, path, forge)
    assert code == 1
    assert captured.out.splitlines()[-1] == "NOT verified"


@pytest.mark.parametrize("command", ["subdet"])
def test_verify_rejects_a_dual_of_the_wrong_side(tmp_path, capsys, command):
    # a level-1 dual cut to 1 x 1 on a 2 x 2 instance is a malformed
    # report, and the error names the dual
    doc = {
        "field": {"p": 5},
        "kind": "bipartite",
        "payload": {"size": 2, "edges": [[1, 1], [2, 2], [1, 2]], "weights": [1, 2, 3]},
    }
    path = write(tmp_path, "cut.json", doc)
    code, out = run(capsys, command, path, "--json")
    assert code == 0

    def cut(report):
        dual = report["duals"]["1"]
        for key in ("alpha", "beta"):
            dual[key] = dual[key][:1]
        for key in ("P", "Q"):
            dual[key] = [dual[key][0][:1]]

    code, captured = verify_edited(tmp_path, capsys, json.loads(out), path, cut)
    assert code == 1
    assert captured.err.splitlines() == ["ncdeg: error: duals[1]: expected 2 entries in alpha, got 1"]


@pytest.mark.parametrize("den", [("alpha", 0, "1/0"), ("beta", 1, "0/0"), ("alpha", 1, "-7/0")])
def test_verify_names_a_zero_denominator(tmp_path, capsys, den):
    # a dual entry 'num/0' is a malformed report, not a crash, and the
    # error names the entry, 0-based
    key, i, text = den
    doc = {
        "field": {"p": 5},
        "kind": "bipartite",
        "payload": {"size": 2, "edges": [[1, 1], [2, 2], [1, 2]], "weights": [1, 2, 3]},
    }
    path = write(tmp_path, "zero_den.json", doc)
    code, out = run(capsys, "subdet", path, "--json")
    assert code == 0

    def forge(report):
        report["duals"]["1"][key][i] = text

    code, captured = verify_edited(tmp_path, capsys, json.loads(out), path, forge)
    assert code == 1
    assert captured.err.splitlines() == [f"ncdeg: error: dual.{key}[{i}]: zero denominator in {text!r}"]


def test_verify_refuses_a_general_dual(tmp_path, capsys):
    # subdet and degdet reports of the rational engine carried general
    # duals, entries [numerator, denominator] coefficient lists; every
    # dual is monomial now, and such a report must not pass silently
    path = write(tmp_path, "diag.json", diag_weighted_doc())
    one, zero = [[1], [1]], [[], [1]]
    I, swap = [[one, zero], [zero, one]], [[zero, one], [one, zero]]
    duals = {
        "1": {"mode": "general", "alpha": [0, 0], "beta": [-3, -3], "P": I, "Q": I},
        "2": {"mode": "general", "alpha": [1, 1], "beta": [-3, -4], "P": I, "Q": swap},
    }
    for command, values, kept in (("subdet", {"0": 0, "1": 3, "2": 5}, duals), ("degdet", {"deg_det": 5}, {"2": duals["2"]})):
        report = {"command": command, "field": {"p": 5}, "seed": 0, "trials": None, "values": values, "duals": kept}
        code, captured = verify_edited(tmp_path, capsys, report, path, lambda r: None)
        assert code == 1
        assert captured.err.splitlines() == ["ncdeg: error: dual.mode: expected 'monomial', got 'general'"]


def test_verify_fmm_report(tmp_path, capsys):
    path = write(tmp_path, "lines.json", k3_lines_doc())
    assert verified(capsys, json.loads(run(capsys, "fmm", path, "--json")[1]), path, tmp_path)


def _claim_neg_inf_without_dual(report):
    report["values"]["3"] = None
    del report["duals"]["3"]
    report["exit"] = 2  # as a singular top level exits


def _drop_finite_dual(report):
    del report["duals"]["2"]


def _nonzero_level_zero(report):
    report["values"]["0"] = 1


@pytest.mark.parametrize(
    "edit", [_claim_neg_inf_without_dual, _drop_finite_dual, _nonzero_level_zero]
)
def test_verify_checks_every_level(tmp_path, capsys, edit):
    # a -inf claim is refuted by nc_rank, a finite level needs its dual,
    # and level 0 is always 0
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    _, out = run(capsys, "subdet", path, "--json")
    code, captured = verify_edited(tmp_path, capsys, json.loads(out), path, edit)
    assert code == 1
    assert captured.out.splitlines()[-1] == "NOT verified"


def test_verify_accepts_true_neg_inf_levels(tmp_path, capsys):
    doc = k3_bipartite_doc()
    doc["payload"] = {"size": 3, "edges": [[1, 1], [2, 1], [3, 1]], "weights": [1, 2, 3]}
    path = write(tmp_path, "star.json", doc)
    code, out = run(capsys, "subdet", path, "--json")
    assert code == 2
    assert json.loads(out)["values"] == {"0": 0, "1": 3, "2": None, "3": None}
    report_path = write(tmp_path, "report.json", json.loads(out))
    assert run(capsys, "verify", report_path, path) == (
        0,
        "  level 0: ok\n  level 1: ok\n  level 2: ok\n  level 3: ok\nverified\n",
    )


def test_verify_checks_fmm_best(tmp_path, capsys):
    path = write(tmp_path, "lines.json", k3_lines_doc())
    _, out = run(capsys, "fmm", path, "--json")

    def inflate(report):
        report["values"]["best"] = 999

    code, captured = verify_edited(tmp_path, capsys, json.loads(out), path, inflate)
    assert code == 1
    assert "  best: FAIL" in captured.out.splitlines()


def test_fmm_without_pairs_verifies(tmp_path, capsys):
    path = write(tmp_path, "empty.json", _no_pairs(k3_lines_doc()))
    code, out = run(capsys, "fmm", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["values"] == {"best": 0, "curve": {"0": 0, "1": None, "2": None, "3": None}}
    assert report["exit"] == 0
    report_path = write(tmp_path, "report.json", report)
    levels = "".join(f"  level {l}: ok\n" for l in range(4))
    assert run(capsys, "verify", report_path, path) == (0, levels + "  best: ok\nverified\n")

    report["values"]["curve"]["1"] = 1
    report["values"]["best"] = 1
    code, captured = verify_edited(tmp_path, capsys, report, path, lambda r: None)
    assert code == 1
    assert captured.out.splitlines()[-1] == "NOT verified"


def verified(capsys, report, path, tmp_path):
    report_path = write(tmp_path, "report.json", report)
    code, out = run(capsys, "verify", report_path, path)
    return code == 0 and out.splitlines()[-1] == "verified"


@pytest.mark.parametrize("command", ["subdet", "degdet", "ncrank"])
def test_bipartite_without_edges(tmp_path, capsys, command):
    # an empty (0, 3, 3) term stack: every level above 0 is -inf, as the
    # brute-force oracle reports
    doc = k3_bipartite_doc()
    doc["payload"] = {"size": 3, "edges": [], "weights": []}
    path = write(tmp_path, "empty.json", doc)
    code, out = run(capsys, command, path, "--json")
    report = json.loads(out)
    want = json.loads(run(capsys, "oracle", path, "--json")[1])["values"]
    if command == "ncrank":
        assert (code, report["values"]["nc_rank"]) == (0, 0)
    elif command == "degdet":
        assert (code, report["values"]) == (2, {"deg_det": want["3"]})
    else:
        assert (code, report["values"]) == (2, want)
    assert verified(capsys, report, path, tmp_path)


def gf2_matroid_pair_doc():
    """Eight rank-one terms over GF(2) with nc-rank 6, where a draw into
    the 7th blow-up often stops short of 42."""
    return {
        "field": {"p": 2},
        "kind": "matroid-pair",
        "payload": {
            "a": [
                [1, 1, 0, 1, 0, 0, 0, 0], [1, 1, 0, 1, 0, 0, 0, 0],
                [1, 1, 0, 1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 0],
                [1, 1, 0, 0, 0, 0, 1, 1], [0, 1, 1, 0, 0, 1, 0, 1],
                [1, 0, 1, 0, 1, 1, 1, 1], [1, 0, 1, 1, 0, 0, 1, 0],
            ],
            "b": [
                [1, 1, 0, 1, 1, 1, 0, 1], [0, 0, 0, 0, 0, 1, 1, 1],
                [1, 1, 0, 1, 1, 0, 1, 0], [0, 1, 1, 0, 1, 1, 0, 1],
                [1, 1, 0, 0, 0, 1, 1, 0], [0, 0, 1, 0, 0, 1, 1, 1],
                [1, 0, 0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 1, 1, 0, 0],
            ],
            "weights": [1, -1, -3, 2, 4, -3, 3, 2],
        },
    }


def test_neg_inf_levels_verify_over_gf2(tmp_path, capsys):
    path = write(tmp_path, "gf2.json", gf2_matroid_pair_doc())
    code, out = run(capsys, "subdet", path, "--json")
    report = json.loads(out)
    assert code == 2 and report["values"]["7"] is None and report["values"]["8"] is None
    assert verified(capsys, report, path, tmp_path)
    code, out = run(capsys, "ncrank", path, "--json")
    assert (code, json.loads(out)["values"]["nc_rank"]) == (0, 6)


def gf2_matroid_pair_12_doc():
    """Eleven rank-one terms of side 12 over GF(2) with nc-rank 10, where
    blow-up draws rarely reach full rank."""
    a = [
        "101111101001", "011011110101", "011111000110", "101011100011",
        "101001010011", "111000010001", "010111110100", "101101111001",
        "110100011110", "010001001100", "001100000100",
    ]
    b = [
        "001100110000", "110000110000", "100111001011", "110000000111",
        "100101101101", "111100011110", "001010110111", "001110101101",
        "010110000110", "001110001011", "010110001110",
    ]
    return {
        "field": {"p": 2},
        "kind": "matroid-pair",
        "payload": {
            "a": [[int(x) for x in row] for row in a],
            "b": [[int(x) for x in row] for row in b],
            "weights": [3, -4, 0, 5, -2, 2, 5, -5, 5, -4, -3],
        },
    }


def no_blowup(*args, **kwargs):
    raise AssertionError("rank-one terms must not reach the blow-up witness")


def test_nc_rank_of_rank_one_terms_draws_no_blowup(monkeypatch):
    monkeypatch.setattr(mvsp, "blowup_witness", no_blowup)
    payload = gf2_matroid_pair_12_doc()["payload"]
    inst = MatroidPairInstance(GF(2), payload["a"], payload["b"], payload["weights"])
    assert mvsp.nc_rank(build_matroid_intersection(inst).base) == 10


def test_verify_of_rank_one_terms_draws_no_blowup(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mvsp, "blowup_witness", no_blowup)
    path = write(tmp_path, "gf2_12.json", gf2_matroid_pair_12_doc())
    code, out = run(capsys, "subdet", path, "--json")
    report = json.loads(out)
    assert code == 2 and report["values"]["11"] is None and report["values"]["12"] is None
    assert verified(capsys, report, path, tmp_path)


def test_ncrank_of_size_zero(tmp_path, capsys):
    doc = k3_bipartite_doc()
    doc["payload"] = {"size": 0, "edges": [], "weights": []}
    path = write(tmp_path, "size0.json", doc)
    code, out = run(capsys, "ncrank", path, "--json")
    assert (code, json.loads(out)["values"]["nc_rank"]) == (0, 0)


def skew_lines_doc():
    """The skew terms a b^t - b a^t of the lines (e3, e2) and (e2 + e3, e1)
    of GF(65521)^3: each has rank two, and splitting them into rank-one
    pieces overstates the nc-rank."""
    return {
        "field": {"p": 65521},
        "kind": "weighted",
        "payload": {
            "rows": 3,
            "cols": 3,
            "terms": [
                [[3, 2, 1], [2, 3, -1]],
                [[2, 1, 1], [3, 1, 1], [1, 2, -1], [1, 3, -1]],
            ],
            "weights": [0, 0],
        },
    }


@pytest.mark.parametrize(
    "command, values",
    [
        ("subdet", {"0": 0, "1": 0, "2": 0, "3": None}),
        ("degdet", {"deg_det": None}),
    ],
)
def test_rank_two_terms_over_a_large_field(tmp_path, capsys, command, values):
    # GF(65521)^3 is far beyond subspace enumeration; the nc-rank is 2,
    # so the top level is -inf and the run exits 2
    path = write(tmp_path, "skew.json", skew_lines_doc())
    code, out = run(capsys, command, path, "--json")
    report = json.loads(out)
    assert (code, report["values"], report["guarantee"]) == (2, values, "strong")
    assert verified(capsys, report, path, tmp_path)


@pytest.mark.parametrize("command", ["subdet"])
def test_matroid_pair_reports_strong_guarantee(tmp_path, capsys, command):
    # matroid intersection returns the dominant optimum like every other
    # witness route, so a run over rank-one terms keeps the strong tier
    doc = {
        "field": {"p": 5},
        "kind": "matroid-pair",
        "payload": {
            "a": [[1, 0], [0, 1], [1, 1]],
            "b": [[1, 0], [1, 1], [0, 1]],
            "weights": [2, 1, 3],
        },
    }
    path = write(tmp_path, "pair.json", doc)
    code, out = run(capsys, command, path, "--json")
    report = json.loads(out)
    assert (code, report["values"], report["guarantee"]) == (0, {"0": 0, "1": 3, "2": 5}, "strong")
    assert verified(capsys, report, path, tmp_path)


def test_fmm_of_one_line_over_a_large_field(tmp_path, capsys):
    doc = {
        "field": {"p": 65521},
        "kind": "lines",
        "payload": {"dim": 2, "pairs": [[[1, 2], [3, 5]]], "weights": [3]},
    }
    path = write(tmp_path, "line.json", doc)
    code, out = run(capsys, "fmm", path, "--json")
    report = json.loads(out)
    assert code == 0
    assert report["values"] == {"best": 3, "curve": {"0": 0, "1": "3/2", "2": 3}}
    assert verified(capsys, report, path, tmp_path)


def test_byte_identical_reports(tmp_path, capsys):
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    _, first = run(capsys, "subdet", path, "--seed", "7", "--json")
    _, second = run(capsys, "subdet", path, "--seed", "7", "--json")
    assert first == second
    _, third = run(capsys, "ncrank", path, "--seed", "7", "--json")
    _, fourth = run(capsys, "ncrank", path, "--seed", "7", "--json")
    assert third == fourth


def test_usage_errors(tmp_path, capsys):
    assert cli.main(["subdet", str(tmp_path / "missing.json")]) == 1
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    assert cli.main(["subdet", path, "--solver", "bogus"]) == 1
    assert cli.main(["subdet", path, "--solver", "auto"]) == 1  # no such flag
    assert cli.main(["fmm", path]) == 1  # wrong kind
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()


_INSTANCE_OF = {"fmm": k3_lines_doc(), "bl-member": bl_doc(["1/2", "1/2", "1/2"])}
_COMMANDS = ("ncrank", "degdet", "subdet", "fmm", "bl-member", "oracle", "verify", "selftest")
_REMOVED = [[c, flag, "7"] for c in _COMMANDS for flag in ("--prime", "--trials")] + [["selftest", "--seed", "7"], ["hungarian"]]


@pytest.mark.parametrize("argv", _REMOVED, ids="".join)
def test_removed_flags_and_commands_are_usage_errors(tmp_path, capsys, argv):
    # the instance decides the field and default_trials(p) the trial
    # counts, selftest runs fixed instances, and hungarian was subdet
    command, *flags = argv
    report, path = report_and_instance(tmp_path, capsys, "subdet")
    if command in _INSTANCE_OF:
        path = write(tmp_path, "inst.json", _INSTANCE_OF[command])
    files = {"selftest": [], "verify": [write(tmp_path, "report.json", report), path]}.get(command, [path])
    assert cli.main([command, *files, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("ncdeg: error:") and (command != "hungarian" or "subdet" in line)


_ENVELOPE_EDITS = [
    *(("subdet", diag_weighted_doc(), {"field": field}) for field in (None, {}, {"p": 7}, {"p": 5, "q": 1}, "5")),
    ("subdet", diag_weighted_doc(), {"trials": -1}),
    ("ncrank", diag_weighted_doc(), {"guarantee": "strong", "kind": "lines", "version": "9.9"}),
    ("degdet", ones_weighted_doc(), {"exit": 0, "guarantee": "exhaustive"}),
    ("subdet", ones_weighted_doc(), {"exit": 0}),
    ("subdet", diag_weighted_doc(), {"exit": False}),
    ("subdet", diag_weighted_doc(), {"version": "9.9"}),
    ("subdet", diag_weighted_doc(), {"kind": "symbolic"}),
    ("subdet", diag_weighted_doc(), {"guarantee": "exhaustive"}),
    ("fmm", k3_lines_doc(), {"exit": 2}),
    ("bl-member", bl_doc(["1/2", "1/2", "3/4"]), {"exit": 2.0}),
    ("oracle", diag_weighted_doc(), {"guarantee": "strong"}),
]


@pytest.mark.parametrize(
    "command, doc, edit", _ENVELOPE_EDITS, ids=[c + "".join(f"-{k}={json.dumps(v, separators=(',', ':'))}".replace('"', "") for k, v in e.items()) for c, _, e in _ENVELOPE_EDITS]
)
def test_verify_checks_the_envelope(tmp_path, capsys, command, doc, edit):
    # the field is the instance's, trials is null, and version, kind,
    # guarantee and exit are what the command writes, to the JSON type:
    # false is not 0 and 2.0 is not 2
    path = write(tmp_path, "inst.json", doc)
    report = json.loads(run(capsys, command, path, "--json")[1])
    assert verified(capsys, report, path, tmp_path)
    code, captured = verify_edited(tmp_path, capsys, report, path, lambda r: r.update(edit))
    assert (code, captured.out) == (1, "")
    [line] = captured.err.splitlines()
    assert any(line.startswith(f"ncdeg: error: report.{key}: expected") for key in edit)


def test_verify_refuses_trials_without_recomputing(tmp_path, capsys):
    # on this rank-deficient file, recomputing with the report's trials
    # would run every one of its 10^7 draws
    path = write(tmp_path, "ones.json", ones_weighted_doc())
    report = json.loads(run(capsys, "ncrank", path, "--json")[1])
    report["trials"] = 10**7
    argv = [sys.executable, "-m", "ncdeg.cli", "verify", write(tmp_path, "report.json", report), path]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))
    start = time.perf_counter()
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr.splitlines() == ["ncdeg: error: report.trials: expected null, got 10000000"]


@pytest.mark.parametrize("command", ["subdet", "ncrank", "oracle"])
def test_size_budget_refuses_before_allocating(tmp_path, capsys, command):
    # a dense 200000 x 200000 stack would take 298 GiB
    doc = k3_bipartite_doc()
    doc["payload"] = {"size": 200000, "edges": [[1, 1]], "weights": [1]}
    path = write(tmp_path, "huge.json", doc)
    tracemalloc.start()
    code = cli.main([command, path])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1 and peak < 1 << 24
    assert err.startswith("ncdeg: error: payload.size:") and "Traceback" not in err


def test_wide_weight_range_refuses_before_allocating(tmp_path, capsys):
    # the oracle's 1 x 1 x (10^12 + 1) coefficient array would take 7.3 TiB
    doc = diag_weighted_doc()
    doc["payload"]["weights"] = [0, 10**12]
    path = write(tmp_path, "wide.json", doc)
    tracemalloc.start()
    code = cli.main(["oracle", path])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1 and peak < 1 << 24
    assert err.startswith("ncdeg: error: weights 0..1000000000000") and "Traceback" not in err


@pytest.mark.parametrize("command", ["subdet", "degdet", "verify"])
def test_wide_weights_refuse_rational_terms_before_allocating(tmp_path, capsys, command):
    # weights of 10^20 need no dense coefficients: the field engine
    # answers, and verify checks its report, within a small peak
    doc = k3_bipartite_doc()
    doc["payload"] = {"size": 2, "edges": [[1, 1], [2, 2]], "weights": [10**20, 10**20]}
    path = write(tmp_path, "wide.json", doc)
    argv = [command, path, "--json"]
    if command == "verify":
        report = json.loads(run(capsys, "subdet", path, "--json")[1])
        argv = ["verify", write(tmp_path, "report.json", report), path]
    tracemalloc.start()
    code = cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and peak < 1 << 24
    if command == "verify":
        assert out.splitlines()[-1] == "verified"
        return
    report = json.loads(out)
    want = {"0": 0, "1": 10**20, "2": 2 * 10**20}
    assert report["values"] == (want if command == "subdet" else {"deg_det": want["2"]})
    assert verified(capsys, report, path, tmp_path)


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "selftest passed" in out


def test_human_output(tmp_path, capsys):
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    code, out = run(capsys, "subdet", path)
    assert code == 0
    assert "Delta_3 = 3" in out


@pytest.mark.parametrize(
    "command, doc, code, lines",
    [
        ("degdet", diag_weighted_doc(), 0, ["  deg Det = 5"]),
        ("ncrank", diag_weighted_doc(), 0, ["  nc-rank = 2 (2x2)"]),
        ("fmm", k3_lines_doc(), 0, ["  nu_0 = 0", "  nu_1 = 1/2", "  nu_2 = 1", "  nu_3 = 3/2", "  max weight = 3/2"]),
        (
            "bl-member",
            bl_doc(["1/2", "1/2", "3/4"]),
            2,
            ["  member: False", '  certificate: {"kind": "dimension", "lhs": "7/2", "rhs": 3}'],
        ),
    ],
)
def test_human_output_of_every_report(tmp_path, capsys, command, doc, code, lines):
    path = write(tmp_path, "inst.json", doc)
    got, out = run(capsys, command, path)
    guarantee = "monte-carlo" if command == "ncrank" else "strong"
    assert got == code
    assert out.splitlines() == [f"ncdeg {command} (p={doc['field']['p']}, seed=0)", *lines, f"  guarantee: {guarantee}"]
