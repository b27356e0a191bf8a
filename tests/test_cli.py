import json

import pytest

from ncdeg import cli, instances
from ncdeg.apps import BipartiteInstance, brute_force_matching_oracles
from ncdeg.errors import ParseError
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
    code, out = run(capsys, "hungarian", path, "--seed", "1", "--json")
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


def test_degdet_singular_exit_two(tmp_path, capsys):
    path = write(
        tmp_path,
        "ones.json",
        {
            "field": {"p": 5},
            "kind": "weighted",
            "payload": {
                "rows": 2,
                "cols": 2,
                "terms": [[[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 2, 1]]],
                "weights": [0],
            },
        },
    )
    code, out = run(capsys, "degdet", path, "--json")
    assert code == 2
    assert json.loads(out)["values"]["deg_det"] is None


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


# ---------------------------------------------------------------------------
# verification loop and determinism


def test_verify_hungarian_report(tmp_path, capsys):
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    _, out = run(capsys, "hungarian", path, "--json")
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, vout = run(capsys, "verify", str(report_path), path)
    assert code == 0
    assert "verified" in vout

    tampered = json.loads(out)
    tampered["values"]["3"] = 99
    report_path.write_text(json.dumps(tampered))
    code, _ = run(capsys, "verify", str(report_path), path)
    assert code == 1


def test_verify_subdet_report(tmp_path, capsys):
    path = write(tmp_path, "diag.json", diag_weighted_doc())
    code, out = run(capsys, "subdet", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["values"] == {"0": 0, "1": 3, "2": 5}
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    assert run(capsys, "verify", str(report_path), path)[0] == 0


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


def _small_P(report):
    report["duals"]["1"]["P"] = [[1]]


def _extra_level(report):
    report["duals"]["7"] = report["duals"]["1"]


@pytest.mark.parametrize(
    "command, edit",
    [
        ("hungarian", _bogus_mode),
        ("hungarian", _no_alpha),
        ("subdet", _small_P),
        ("hungarian", _extra_level),
    ],
)
def test_verify_rejects_malformed_report(tmp_path, capsys, command, edit):
    report, path = report_and_instance(tmp_path, capsys, command)
    code, captured = verify_edited(tmp_path, capsys, report, path, edit)
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ncdeg: error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["hungarian", "subdet"])
def test_verify_flags_corrupted_dual(tmp_path, capsys, command):
    report, path = report_and_instance(tmp_path, capsys, command)

    def corrupt(report):
        report["duals"]["1"]["alpha"][0] += 100

    code, captured = verify_edited(tmp_path, capsys, report, path, corrupt)
    assert code == 1
    assert captured.out.splitlines()[-1] == "NOT verified"


@pytest.mark.parametrize("command", ["hungarian", "subdet"])
def test_verify_rejects_singular_P(tmp_path, capsys, command):
    # P = 0 clears every support constraint, so without an invertibility
    # check any claimed value would verify
    report, path = report_and_instance(tmp_path, capsys, command)

    def forge(report):
        dual = report["duals"]["1"]
        zero = 0 if command == "hungarian" else [[], [1]]
        dual["P"] = [[zero, zero], [zero, zero]]
        dual["alpha"][1] = -99 - dual["beta"][1]
        report["values"]["1"] = 99

    code, captured = verify_edited(tmp_path, capsys, report, path, forge)
    assert code == 1
    assert captured.out.splitlines()[-1] == "NOT verified"


def test_verify_fmm_report(tmp_path, capsys):
    path = write(tmp_path, "lines.json", k3_lines_doc())
    _, out = run(capsys, "fmm", path, "--json")
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    assert run(capsys, "verify", str(report_path), path)[0] == 0


def test_byte_identical_reports(tmp_path, capsys):
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    _, first = run(capsys, "hungarian", path, "--seed", "7", "--json")
    _, second = run(capsys, "hungarian", path, "--seed", "7", "--json")
    assert first == second
    _, third = run(capsys, "ncrank", path, "--seed", "7", "--json")
    _, fourth = run(capsys, "ncrank", path, "--seed", "7", "--json")
    assert third == fourth


def test_prime_override(tmp_path, capsys):
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    _, out = run(capsys, "hungarian", path, "--prime", "7", "--json")
    assert json.loads(out)["field"] == {"p": 7}


def test_usage_errors(tmp_path, capsys):
    assert cli.main(["hungarian", str(tmp_path / "missing.json")]) == 1
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    assert cli.main(["hungarian", path, "--solver", "bogus"]) == 1
    assert cli.main(["fmm", path]) == 1  # wrong kind
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "selftest passed" in out


def test_human_output(tmp_path, capsys):
    path = write(tmp_path, "k3.json", k3_bipartite_doc())
    code, out = run(capsys, "hungarian", path)
    assert code == 0
    assert "Delta_3 = 3" in out
