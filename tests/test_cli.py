import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weylkit import __version__
from weylkit.cli import main, parse_group, parse_multiplier, parse_subgroup
from weylkit.errors import DefectError
from weylkit.models import induced_model
from weylkit.phases import Phase

SCENARIOS = sorted((Path(__file__).parent.parent / "scenarios").glob("*.json"))


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_padic_311_flags(capsys):
    code, rep = run(capsys, ["padic", "--p", "3", "--k", "1", "--d", "1"])
    assert code == 0
    assert rep["pass"] is True
    assert rep["summary"]["vacuum_dim"] == 1


def test_padic_211_scenario(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"task": "padic", "padic": {"p": 2, "k": 1, "d": 1}})
    code, rep = run(capsys, ["padic", "--scenario", path])
    assert code == 0
    assert rep["summary"]["vacuum_dim"] == 2
    assert rep["summary"]["clifford_residual_max"] <= 1e-9


def test_reports_byte_identical(tmp_path):
    path = write(tmp_path, "s.json", {"task": "padic", "padic": {"p": 2, "k": 1, "d": 1}})
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["padic", "--scenario", path, "--out", out1]) == 0
    assert main(["padic", "--scenario", path, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_verify_pass_and_heisenberg(tmp_path, capsys):
    sc = {
        "task": "verify",
        "group": {"moduli": [3, 3]},
        "multiplier": {"type": "weyl_product", "left_rank": 1, "pairing": [["1/3"]]},
    }
    code, rep = run(capsys, ["verify", "--scenario", write(tmp_path, "v.json", sc)])
    assert code == 0
    assert rep["summary"]["is_heisenberg"] is True


def test_verify_corrupted_table_exits_1(tmp_path, capsys):
    # a single nonzero entry on Z/3 cannot satisfy the cocycle identity
    values = [["0", "0", "0"], ["0", "1/3", "0"], ["0", "0", "0"]]
    sc = {
        "task": "verify",
        "group": {"moduli": [3]},
        "multiplier": {"type": "table", "values": values},
    }
    code, rep = run(capsys, ["verify", "--scenario", write(tmp_path, "v.json", sc)])
    assert code == 1
    failing = [c for c in rep["checks"] if not c["pass"]]
    assert failing and failing[0].get("witness")


# a table on Z/3 over a denominator past int64 sums: at 9 10^18 the cocycle sums
# a + e - 1 = 2^64 - den of the entries m(1, 1) = a, m(2, 2) = e wrapped to a false pass;
# at 2 10^19 no numerator fits int64
OVERSIZED_DENOMINATORS = {
    "cocycle-sums": (9 * 10 ** 18, 9 * 10 ** 18 - 1, 2 ** 64 - 18 * 10 ** 18 + 2),
    "numerators": (2 * 10 ** 19, 2 * 10 ** 19 - 1, 3),
}


@pytest.mark.parametrize("case", OVERSIZED_DENOMINATORS, ids=list(OVERSIZED_DENOMINATORS))
def test_verify_oversized_denominator_exits_2(tmp_path, capsys, case):
    den, a, e = OVERSIZED_DENOMINATORS[case]
    assert 0 < a < den and 0 < e < den
    values = [["0", "0", "0"], ["0", f"{a}/{den}", f"1/{den}"], ["0", f"1/{den}", f"{e}/{den}"]]
    sc = {"task": "verify", "group": {"moduli": [3]}, "multiplier": {"type": "table", "values": values}}
    assert main(["verify", "--scenario", write(tmp_path, "v.json", sc)]) == 2
    assert "beyond int64 arrays" in capsys.readouterr().err


def test_verify_decides_a_bicharacter_past_int64_pair_sums(tmp_path, capsys):
    # on (Z/3^21)^2, x . B . y reaches about 10^30, past int64; the form is decided on its
    # matrix and its antisymmetrization read off it, so no pair is summed
    n = 3 ** 21
    sc = {"task": "verify", "group": {"moduli": [n, n]},
          "multiplier": {"type": "bicharacter", "B": [["0", f"1/{n}"], [f"-1/{n}", "0"]]}}
    code, rep = run(capsys, ["verify", "--scenario", write(tmp_path, "v.json", sc)])
    assert code == 0 and rep["pass"] is True and rep["summary"]["is_heisenberg"] is True
    assert [(c["name"], c["note"]) for c in rep["checks"]] == [
        (name, "bilinear, well defined on G: decided on its 2 x 2 matrix")
        for name in ("normalization", "cocycle")]


def test_isotropy_task(tmp_path, capsys):
    sc = {
        "task": "isotropy",
        "group": {"moduli": [4, 4]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/4"], ["-1/4", "0"]]},
        "subgroup": {"generators": [[2, 0], [0, 2]]},
    }
    code, rep = run(capsys, ["isotropy", "--scenario", write(tmp_path, "i.json", sc)])
    assert code == 0
    assert rep["summary"]["maximal"] is True
    assert rep["summary"]["polar_tilde_order"] == 16


def test_model_task_with_dump(tmp_path, capsys):
    sc = {
        "task": "model",
        "group": {"moduli": [2, 2]},
        "multiplier": {"type": "table",
                       "values": [["0", "0", "0", "0"],
                                  ["0", "0", "0", "0"],
                                  ["0", "1/2", "0", "1/2"],
                                  ["0", "1/2", "0", "1/2"]]},
        "subgroup": {"generators": [[1, 0]]},
    }
    code, rep = run(capsys, ["model", "--scenario", write(tmp_path, "m.json", sc),
                             "--check-law", "--commutant", "--dump-matrices"])
    assert code == 0
    assert rep["summary"]["dimension"] == 2
    assert rep["summary"]["commutant_dimension"] == 1
    dump = rep["summary"]["matrices"]
    assert len(dump) == 4
    # every dumped operator, in rank order, is the model's own W(x)
    G = parse_group(sc["group"])
    W = induced_model(G, parse_multiplier(sc["multiplier"], G), parse_subgroup(sc["subgroup"], G))
    for x, entry in zip(G.elements(), dump):
        op = W.operator(x)
        assert entry == {"element": list(x.coords), "permutation": op.src.tolist(),
                         "phases": [str(Phase(int(n), op.den)) for n in op.num]}


def test_vacuum_task(tmp_path, capsys):
    sc = {
        "task": "vacuum",
        "group": {"moduli": [9, 9]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/9"], ["-1/9", "0"]]},
        "subgroup": {"generators": [[3, 0], [0, 3]]},
    }
    code, rep = run(capsys, ["vacuum", "--scenario", write(tmp_path, "v.json", sc)])
    assert code == 0
    assert rep["summary"]["vacuum_dim"] == 1
    assert rep["summary"]["labeled_by_cosets"] is True


@pytest.mark.parametrize("c, code", [(lambda i, j: i, 0), (lambda i, j: int((i, j) == (1, 0)), 2)],
                         ids=["character", "no-splitting"])
def test_vacuum_honours_the_splitting(tmp_path, capsys, c, code):
    # m vanishes on L = 3 (Z/9)^2, so a splitting of it is a character of L:
    # c(3i, 3j) = i/3 is one, and c = 1/3 at (3, 0) alone is refused
    values = [{"element": [3 * i, 3 * j], "phase": f"{c(i, j)}/3"} for i in range(3) for j in range(3)]
    sc = {
        "task": "vacuum",
        "group": {"moduli": [9, 9]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/9"], ["-1/9", "0"]]},
        "subgroup": {"generators": [[3, 0], [0, 3]]},
        "splitting": {"values": values},
    }
    assert main(["vacuum", "--scenario", write(tmp_path, "v.json", sc)]) == code
    assert ("splitting fails" in capsys.readouterr().err) == (code == 2)


UNREAD_FIELDS = {
    # a table's denominator is read off its values
    "den": ({"task": "verify", "group": {"moduli": [2]},
             "multiplier": {"type": "table", "values": [["0", "0"], ["0", "1/2"]], "den": 2}},
            "multiplier: unknown fields ['den']"),
    # a model entry is built as it stands
    "splitting": ({"task": "vacuum", "group": {"moduli": [4, 4]},
                   "multiplier": {"type": "bicharacter", "B": [["0", "1/4"], ["-1/4", "0"]]},
                   "subgroup": {"generators": [[2, 0], [0, 2]]},
                   "model": {"type": "window", "p": 2, "k": 1, "d": 1},
                   "splitting": {"values": []}},
                  "with a 'model' entry the splitting belongs in it"),
    # a window model is built on its own group, so a subgroup in its entry has no reader
    "window-subgroup": ({"task": "vacuum", "group": {"moduli": [4, 4]},
                         "multiplier": {"type": "bicharacter", "B": [["0", "1/4"], ["-1/4", "0"]]},
                         "subgroup": {"generators": [[2, 0], [0, 2]]},
                         "model": {"type": "window", "p": 2, "k": 1, "d": 1,
                                   "subgroup": {"generators": [[2, 0], [0, 2]]}}},
                        "model: unknown fields ['subgroup']"),
    # every verdict is exact, so nothing reads a tolerance
    "tolerance": ({"task": "svn", "group": {"moduli": [9, 9]},
                   "multiplier": {"type": "bicharacter", "B": [["0", "1/9"], ["-1/9", "0"]]},
                   "subgroups": [{"generators": [[3, 0], [0, 3]]}, {"generators": [[1, 0]]}],
                   "tolerance": 1e-7},
                  "scenario: unknown fields ['tolerance']"),
}


WINDOW_ENTRY_FAULTS = {
    "missing-d": ([4, 4], [["0", "1/4"], ["-1/4", "0"]], {"p": 2, "k": 1},
                  "model: missing fields ['d']"),
    "group": ([3], [["0"]], {"p": 2, "k": 1, "d": 1},
              "model: the window (p=2, k=1, d=1) lives on the moduli [4, 4], not the scenario's [3]"),
    "multiplier": ([4, 4], [["0", "1/4"], ["1/4", "0"]], {"p": 2, "k": 1, "d": 1},
                   "model: the scenario's multiplier is not the symplectic form of the window"),
}


@pytest.mark.parametrize("fault", sorted(WINDOW_ENTRY_FAULTS))
def test_window_model_entry_is_checked(tmp_path, capsys, fault):
    moduli, B, entry, message = WINDOW_ENTRY_FAULTS[fault]
    sc = {"task": "model", "group": {"moduli": moduli},
          "multiplier": {"type": "bicharacter", "B": B},
          "model": {"type": "window", **entry}}
    assert main(["model", "--scenario", write(tmp_path, "s.json", sc), "--commutant"]) == 2
    assert message in capsys.readouterr().err


def test_model_over_a_table_that_is_no_cocycle_exits_2(tmp_path, capsys):
    # m(e1, e2) = 1/2 and 0 elsewhere on (Z/2)^2: the identity fails at (e1, e2, e1)
    values = [["0"] * 4 for _ in range(4)]
    values[1][2] = "1/2"
    sc = {"task": "model", "group": {"moduli": [2, 2]},
          "multiplier": {"type": "table", "values": values},
          "subgroup": {"generators": [[1, 0]]}}
    assert main(["model", "--scenario", write(tmp_path, "s.json", sc)]) == 2
    assert "not a multiplier" in capsys.readouterr().err


@pytest.mark.parametrize("field", sorted(UNREAD_FIELDS))
def test_unread_fields_are_refused(tmp_path, capsys, field):
    sc, message = UNREAD_FIELDS[field]
    assert main([sc["task"], "--scenario", write(tmp_path, "s.json", sc)]) == 2
    assert message in capsys.readouterr().err


# integer fields take JSON integers only: a bool, a float or a string is refused, by name
INT_FIELD_FAULTS = {
    "padic-bool-and-float": ({"task": "padic", "padic": {"p": 3, "k": True, "d": 1.9}},
                             "padic: k must be an integer, not true"),
    "padic-string": ({"task": "padic", "padic": {"p": "3", "k": 1, "d": 1}},
                     'padic: p must be an integer, not "3"'),
    "window-float": ({"task": "model", "group": {"moduli": [4, 4]},
                      "multiplier": {"type": "bicharacter", "B": [["0", "1/4"], ["-1/4", "0"]]},
                      "model": {"type": "window", "p": 2, "k": 1, "d": 1.0}},
                     "model: d must be an integer, not 1.0"),
    "left_rank-bool": ({"task": "verify", "group": {"moduli": [3, 3]},
                        "multiplier": {"type": "weyl_product", "left_rank": True,
                                       "pairing": [["1/3"]]}},
                       "multiplier: left_rank must be an integer, not true"),
    "seed-float": ({"task": "padic", "seed": 7.0, "padic": {"p": 3, "k": 1, "d": 1}},
                   "scenario: seed must be an integer, not 7.0"),
}


@pytest.mark.parametrize("fault", sorted(INT_FIELD_FAULTS))
def test_integer_fields_refuse_bools_floats_and_strings(tmp_path, capsys, fault):
    sc, message = INT_FIELD_FAULTS[fault]
    assert main([sc["task"], "--scenario", write(tmp_path, "s.json", sc)]) == 2
    assert f"error: {message}\n" == capsys.readouterr().err


def test_huge_window_exponent_is_refused_before_its_power():
    # 2^(2 k d) with d = 2^63 is never built: under a 2 GB address-space limit the window is
    # refused with exit 2, naming the power, in well under a second
    import resource
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys, time; from weylkit.cli import main; t = time.perf_counter(); "
            "c = main(['padic', '--p', '2', '--k', '2', '--d', '9223372036854775808']); "
            "print(time.perf_counter() - t); sys.exit(c)")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))

    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, preexec_fn=limit)
    assert out.returncode == 2 and float(out.stdout) < 0.5
    assert out.stderr == "error: carrier dimension 2^36893488147419103232 exceeds --max-dim = 4096\n"


def test_fermion_task(tmp_path, capsys):
    sc = {
        "task": "fermion",
        "group": {"moduli": [4, 4]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/4"], ["-1/4", "0"]]},
        "subgroup": {"generators": [[2, 0], [0, 2]]},
        "model": {"type": "window", "p": 2, "k": 1, "d": 1},
    }
    code, rep = run(capsys, ["fermion", "--scenario", write(tmp_path, "f.json", sc)])
    assert code == 0
    assert rep["summary"]["v2_order"] == 4
    assert rep["summary"]["d"] == 1
    assert rep["summary"]["clifford_gram"] == [[0, 1], [1, 0]]


def test_fermion_induced_model_past_max_dim_exits_2(tmp_path, capsys, monkeypatch):
    # with no 'model' entry the induced model on G/L, dimension 128^2 / 2, is checked
    # against --max-dim before it is built
    monkeypatch.setattr("weylkit.cli.induced_model", lambda *a: pytest.fail("model built"))
    sc = {
        "task": "fermion",
        "group": {"moduli": [128, 128]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/128"], ["-1/128", "0"]]},
        "subgroup": {"generators": [[64, 0]]},
    }
    code = main(["fermion", "--scenario", write(tmp_path, "f.json", sc)])
    assert code == 2
    assert "carrier dimension 8192 exceeds --max-dim = 4096" in capsys.readouterr().err


def test_svn_task_f2(tmp_path, capsys):
    sc = {
        "task": "svn",
        "group": {"moduli": [2, 2]},
        "multiplier": {"type": "table",
                       "values": [["0", "0", "0", "0"],
                                  ["0", "0", "0", "0"],
                                  ["0", "1/2", "0", "1/2"],
                                  ["0", "1/2", "0", "1/2"]]},
        "subgroups": [{"generators": [[1, 0]]}, {"generators": [[0, 1]]}],
    }
    code, rep = run(capsys, ["svn", "--scenario", write(tmp_path, "s.json", sc)])
    assert code == 0
    assert rep["summary"]["intertwiner_dimension"] == 1
    assert rep["summary"]["unitary_defect"] <= 1e-9


def test_svn_same_subgroup_twice(tmp_path, capsys):
    sc = {
        "task": "svn",
        "group": {"moduli": [9, 9]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/9"], ["-1/9", "0"]]},
        "subgroups": [{"generators": [[3, 0], [0, 3]]}, {"generators": [[3, 0], [0, 3]]}],
    }
    code, rep = run(capsys, ["svn", "--scenario", write(tmp_path, "s.json", sc)])
    assert code == 0
    assert rep["summary"]["intertwiner_dimension"] == 1


def test_svn_distinct_subgroups_z9(tmp_path, capsys):
    sc = {
        "task": "svn",
        "group": {"moduli": [9, 9]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/9"], ["-1/9", "0"]]},
        "subgroups": [{"generators": [[3, 0], [0, 3]]}, {"generators": [[1, 0]]}],
    }
    code, rep = run(capsys, ["svn", "--scenario", write(tmp_path, "s.json", sc)])
    assert code == 0
    assert rep["summary"]["intertwiner_dimension"] == 1
    assert rep["summary"]["unitary_defect"] <= 1e-9


def test_svn_z9_decides_unitarity_exactly(capsys):
    # Schur's lemma decides the record: its residual is 0.0, and no report field
    # carries a tolerance
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "svn_z9.json"
    code, rep = run(capsys, ["svn", "--scenario", str(scenario)])
    assert code == 0 and rep["summary"]["unitary_defect"] == 0.0
    assert rep["checks"][-1] == {"name": "normalized intertwiner unitary", "pass": True,
                                 "residual": 0.0}
    assert list(rep) == ["task", "seed", "versions", "summary", "checks", "pass", "timings"]
    assert not any("tolerance" in c for c in rep["checks"])


def test_tolerance_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["padic", "--p", "3", "--k", "1", "--d", "1", "--tolerance", "1e-7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance 1e-7" in capsys.readouterr().err


def test_svn_rejects_non_maximal(tmp_path, capsys):
    sc = {
        "task": "svn",
        "group": {"moduli": [9, 9]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/9"], ["-1/9", "0"]]},
        "subgroups": [{"generators": [[3, 0]]}, {"generators": [[1, 0]]}],
    }
    code = main(["svn", "--scenario", write(tmp_path, "s.json", sc)])
    assert code == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"task": "padic", "padic": {')
    code = main(["padic", "--scenario", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_field_rejected(tmp_path, capsys):
    sc = {"task": "padic", "padic": {"p": 3, "k": 1, "d": 1}, "bogus": 1}
    code = main(["padic", "--scenario", write(tmp_path, "s.json", sc)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_task_mismatch_rejected(tmp_path, capsys):
    sc = {"task": "padic", "padic": {"p": 3, "k": 1, "d": 1}}
    code = main(["verify", "--scenario", write(tmp_path, "s.json", sc)])
    assert code == 2


def test_text_format(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"task": "padic", "padic": {"p": 3, "k": 1, "d": 1}})
    code, out = run(capsys, ["padic", "--scenario", path, "--format", "text"])
    assert code == 0
    assert "[pass]" in out


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_committed_scenario_passes(path, capsys):
    task = json.loads(path.read_text())["task"]
    code, rep = run(capsys, [task, "--scenario", str(path)])
    assert code == 0
    assert rep["pass"] is True


def test_committed_scenarios_found():
    assert SCENARIOS


def test_model_check_law_scans_each_identity_once(tmp_path, capsys, monkeypatch):
    from weylkit import models
    calls = []
    check_pairs = models._check_pairs

    def counted(rep, name, *args):
        calls.append(name)
        check_pairs(rep, name, *args)

    monkeypatch.setattr(models, "_check_pairs", counted)
    sc = {
        "task": "model",
        "group": {"moduli": [9, 9]},
        "multiplier": {"type": "bicharacter", "B": [["0", "1/9"], ["-1/9", "0"]]},
        "subgroup": {"generators": [[1, 0]]},
    }
    code, rep = run(capsys, ["model", "--scenario", write(tmp_path, "m.json", sc), "--check-law"])
    assert code == 0 and rep["pass"] is True
    assert calls == ["law", "commutator"]


def test_padic_checks_no_bicharacter_cocycle(capsys, monkeypatch):
    # a bicharacter is a normalized cocycle by construction, and so are the tables the p = 2
    # report builds from the window form: m0 by descend's argument and m0 - chi(b1.a2) as a
    # difference of two cocycles; no cocycle test runs at all
    from weylkit import multipliers
    checked = []
    check = multipliers.check_multiplier

    def counted(m, **kwargs):
        checked.append(m)
        return check(m, **kwargs)

    monkeypatch.setattr(multipliers, "check_multiplier", counted)
    code, rep = run(capsys, ["padic", "--p", "2", "--k", "2", "--d", "2", "--full-report"])
    assert code == 0 and rep["pass"] is True
    assert checked == []


def test_svn_beyond_table_cap(tmp_path, capsys):
    # (Z/9)^4 has order 6561, its |G|^2 table past ENTRY_BUDGET; both models have dimension 81
    B = [["0"] * 4 for _ in range(4)]
    for i in range(2):
        B[i][i + 2], B[i + 2][i] = "1/9", "-1/9"
    sc = {
        "task": "svn",
        "group": {"moduli": [9, 9, 9, 9]},
        "multiplier": {"type": "bicharacter", "B": B},
        "subgroups": [{"generators": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                      {"generators": [[0, 0, 1, 0], [0, 0, 0, 1]]}],
    }
    code, rep = run(capsys, ["svn", "--scenario", write(tmp_path, "s.json", sc)])
    assert code == 0 and rep["pass"] is True
    assert rep["summary"]["dimensions"] == [81, 81]
    assert rep["summary"]["intertwiner_dimension"] == 1


def test_defect_report_carries_provenance(tmp_path, capsys, monkeypatch):
    from weylkit import cli

    def defect(scenario, args):
        raise DefectError("forced defect", witness=(1, 2))

    monkeypatch.setitem(cli.RUNNERS, "padic", defect)
    code, rep = run(capsys, ["padic", "--p", "3", "--k", "1", "--d", "1",
                             "--seed", "7"])
    assert code == 1
    assert rep == {"task": "padic", "seed": 7,
                   "versions": {"weylkit": __version__, "numpy": np.__version__},
                   "pass": False, "defect": "forced defect", "witness": [1, 2]}


# vacuum scenarios on [64, 64, 2] (order 8192 > 4096) where L/2 = G: the
# complement of L/2 is empty, so "outside L/2 moves vacuum" must hold vacuously
# rather than sample forever.  With the one-sided form B[0][1] = 1/64 no
# L/2 comparison is made; with its alternating version m~ = 2B is degenerate,
# its polar of L is all of G, and that differs from the double preimage of L.
NORMALIZER_IS_G = {
    "one-sided": ([["0", "1/64", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                  [[1, 0, 0], [0, 0, 1]], 0),
    "alternating": ([["0", "1/64", "0"], ["-1/64", "0", "0"], ["0", "0", "0"]],
                    [[1, 0, 0], [0, 32, 0], [0, 0, 1]], 1),
}


@pytest.mark.parametrize("case", list(NORMALIZER_IS_G))
def test_vacuum_normalizer_equal_to_g_returns(tmp_path, case):
    B, model_gens, want = NORMALIZER_IS_G[case]
    path = write(tmp_path, "v.json", {
        "task": "vacuum", "group": {"moduli": [64, 64, 2]},
        "multiplier": {"type": "bicharacter", "B": B},
        "subgroup": {"generators": [[0, 0, 1]]},
        "model": {"type": "induced", "subgroup": {"generators": model_gens}}})
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-m", "weylkit", "vacuum", "--scenario", path],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == want
    checks = {c["name"]: c for c in json.loads(out.stdout)["checks"]}
    assert checks["outside L/2 moves vacuum"]["pass"]
    assert checks["outside L/2 moves vacuum"]["note"] == "L/2 = G; vacuously true"
    if want:
        assert [n for n, c in checks.items() if not c["pass"]] == ["normalizer equals L/2"]
    else:
        assert "normalizer equals L/2" not in checks


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = "import sys, weylkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_main_is_reentrant(tmp_path, capsysbinary, monkeypatch):
    """One process, one shared parser: every call of ``main`` writes the bytes and exits with
    the code of the same argv in a fresh interpreter, whatever ran before it."""
    from weylkit.cli import build_parser
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")        # argparse's usage lines read the width
    seeded = write(tmp_path, "seeded.json", {"task": "padic", "seed": 7,
                                             "padic": {"p": 3, "k": 1, "d": 1}})
    out = tmp_path / "in-process.json"
    sequence = [
        ["padic", "--p", "3", "--k", "1", "--d", "1"],
        ["padic", "--scenario", seeded],
        ["padic", "--p", "5", "--k", "1", "--d", "1"],     # no seed: its own 0, not 7
        ["padic", "--p", "three"],
        ["padic", "--p", "3", "--k", "1", "--d", "1", "--format", "text"],
        ["padic", "--p", "2", "--k", "1", "--d", "1", "--out", str(out)],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    outputs = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsysbinary.readouterr()
        fresh_argv = argv
        if "--out" in argv:
            got = got._replace(out=out.read_bytes())
            fresh_out = tmp_path / "fresh.json"
            fresh_argv = argv[:-1] + [str(fresh_out)]
        fresh = subprocess.run([sys.executable, "-m", "weylkit", *fresh_argv], env=env,
                               capture_output=True, timeout=60)
        if "--out" in argv:
            fresh.stdout = fresh_out.read_bytes()
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        outputs.append((code, got.out))
    assert [code for code, _ in outputs] == [0, 0, 0, 2, 0, 0]
    assert [b'"seed": 7' in o for _, o in outputs[:3]] == [False, True, False]
    assert b'"seed": 0' in outputs[2][1] and b'"seed": 0' in outputs[5][1]
