import dataclasses
import importlib
import json
import pkgutil
import time
import typing
from pathlib import Path

import numpy as np
import pytest

import weylkit
from weylkit.errors import DefectError, InputError
from weylkit.groups import double_image
from weylkit.models import check_rep_law
from weylkit.multipliers import antisymmetrize, is_heisenberg
from weylkit.padic import (
    vacuum_profile,
    window_group,
    window_reducibility_check,
)
from weylkit.vacuum import descend
from conftest import window, window_model


def test_window_group_examples():
    w = window(3, 1, 1)
    assert w.group.moduli == (9, 9)
    assert w.L.order == 9

    w2 = window(2, 1, 1)
    assert w2.group.moduli == (4, 4)
    assert {e.coords for e in w2.L.elements()} == {(0, 0), (2, 0), (0, 2), (2, 2)}

    w3 = window(2, 2, 2)
    assert w3.group.order == 65536
    assert w3.L.order == 256


def test_window_rejects_composite():
    with pytest.raises(InputError):
        window_group(4, 1, 1)
    with pytest.raises(InputError):
        window_group(2, 0, 1)


def test_window_weyl_matrices_211():
    W = window_model(2, 1, 1)
    G = W.group
    assert np.allclose(W.operator(G.element([0, 1])).matrix, np.diag([1, -1, 1, -1]))
    shift = W.operator(G.element([1, 0])).matrix
    expect = np.zeros((4, 4))
    for s in range(4):
        expect[s, (s + 1) % 4] = 1
    assert np.allclose(shift, expect)
    assert np.allclose(W.operator(G.zero()).matrix, np.eye(4))


def test_window_weyl_law_311_exhaustive():
    W = window_model(3, 1, 1)
    rep = check_rep_law(W)
    assert rep.passed
    assert rep.max_residual == 0.0


def test_every_dataclass_resolves_its_type_hints():
    # an annotation naming a class its module never imports raises NameError here
    found = []
    for info in pkgutil.iter_modules(weylkit.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"weylkit.{info.name}")
        for cls in vars(mod).values():
            if dataclasses.is_dataclass(cls) and cls.__module__ == mod.__name__:
                typing.get_type_hints(cls)
                found.append(cls.__name__)
    assert "PAdicWindow" in found and len(found) >= 5


def test_heisenberg_parity():
    assert is_heisenberg(window(3, 1, 1).m)
    assert is_heisenberg(window(5, 1, 1).m)
    assert not is_heisenberg(window(2, 1, 1).m)
    assert not is_heisenberg(window(2, 2, 1).m)


@pytest.mark.parametrize("p,k,d,vdim", [
    (3, 1, 1, 1),
    (2, 1, 1, 2),
    (2, 1, 2, 4),
    (2, 2, 1, 2),
    (2, 1, 4, 16),
])
def test_vacuum_profiles(p, k, d, vdim):
    prof = vacuum_profile(window(p, k, d))
    assert prof["report"].passed, str(prof["report"])
    assert prof["vacuum_dim"] == vdim
    if p == 2:
        assert prof["v2_order"] == 4 ** d
        assert prof["clifford_residual_max"] <= 1e-9


def test_profile_311_sectors_all_lines():
    prof = vacuum_profile(window(3, 1, 1))
    dims = prof["sector_dims"]
    assert set(dims.values()) == {1}
    assert len(dims) == 9


def test_profile_211_pauli_pair():
    prof = vacuum_profile(window(2, 1, 1))
    C = prof["clifford"]
    mats = [E.matrix for E in C.operators]
    assert any(np.allclose(M, np.array([[0, 1], [1, 0]])) for M in mats)
    assert any(np.allclose(M, np.diag([1, -1])) for M in mats)
    # the action on F_2: (W''(a1,a2) f)(c) = chi(c.a2 + a1.a2) f(c + a1),
    # whose generator matrices are exactly the swap and the sign flip
    assert prof["report"].passed


def test_vacuum_dim_independent_of_k():
    for p, d in [(2, 1), (3, 1)]:
        a = vacuum_profile(window(p, 1, d))
        b = vacuum_profile(window(p, 2, d))
        assert a["vacuum_dim"] == b["vacuum_dim"]
        assert a["v2_order"] == b["v2_order"]


def test_reducibility_split():
    for key in [(2, 1, 1), (2, 1, 2), (2, 2, 1)]:
        rep = window_reducibility_check(descend(window_model(*key), window(*key).L))
        assert rep.passed, str(rep)
    with pytest.raises(InputError):
        window_reducibility_check(descend(window_model(3, 1, 1), window(3, 1, 1).L))


def test_m0_twist_check_can_fail(monkeypatch):
    import dataclasses

    from weylkit import padic
    from weylkit.multipliers import TableMultiplier
    name = "m0 equals chi(b1.a2) up to an explicit twist"

    def verdict():
        prof = vacuum_profile(window(2, 1, 1))
        (check,) = [c for c in prof["report"].checks if c.name == name]
        return prof, check

    prof, check = verdict()
    assert check.passed and not prof["m0_literal_match"]

    # a twist that leaves a residual is a defect of split_symmetric, which
    # re-verifies its residual exactly, not a failed check
    def leaves_a_residual(m):
        raise DefectError("splitting residual is nonzero")

    monkeypatch.setattr(padic, "split_symmetric", leaves_a_residual)
    with pytest.raises(DefectError):
        verdict()
    monkeypatch.undo()

    # an m0 whose antisymmetrization is off by e(v1 u2 / 2) is not symmetric
    # against chi(b1.a2); the Clifford step still gets the true descent
    descend, clifford_basis = padic.descend, padic.clifford_basis
    true = {}

    def corrupt(W, L):
        D = true["D"] = descend(W, L)
        X = D.v2.coords_array()
        skew = np.outer(X[:, 0], X[:, 1]) % 2
        m0 = TableMultiplier(D.v2, 2 * D.m0.den, 2 * D.m0.num + D.m0.den * skew)
        return dataclasses.replace(D, m0=m0)

    monkeypatch.setattr(padic, "descend", corrupt)
    monkeypatch.setattr(padic, "clifford_basis", lambda D: clifford_basis(true["D"]))
    _, check = verdict()
    assert not check.passed
    assert check.witness == ((1, 0), (0, 1))


def test_clifford_residual_is_decided_exactly(monkeypatch, capsys):
    # clifford_basis decides the relations exactly, so any nonzero residual fails the check,
    # however small
    import dataclasses

    from weylkit import cli, padic
    from weylkit.vacuum import clifford_basis

    def off(D):
        return dataclasses.replace(clifford_basis(D), residual_anticommute=1e-12)

    monkeypatch.setattr(padic, "clifford_basis", off)
    check = next(c for c in vacuum_profile(window(2, 1, 1))["report"].checks
                 if c.name == "clifford residual")
    assert not check.passed and check.residual == 1e-12
    monkeypatch.setattr(cli, "clifford_basis", off)
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "fermion_window_2_1_1.json"
    assert cli.main(["fermion", "--scenario", str(scenario)]) == 1
    check = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                 if c["name"] == "clifford residual")
    assert not check["pass"] and check["residual"] == 1e-12


def test_p2_full_report_check_names(capsys):
    from weylkit import cli
    assert cli.main(["padic", "--p", "2", "--k", "1", "--d", "1", "--full-report"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == [
        "is_heisenberg matches parity", "vacuum dimension = 2^d", "|V2| = 2^(2d)",
        "W0 law", "n nondegenerate", "lift of n equals m~ on L/2",
        "clifford residual", "clifford commutant is scalar",
        "descended m~ equals chi(b1.a2 - b2.a1)",
        "m0 equals chi(b1.a2) up to an explicit twist", "window law", "window model reducible",
        "descended vacuum action irreducible"]
    assert report["summary"]["m0_literal_match"] is False


def test_full_report_builds_and_descends_once(monkeypatch, capsys):
    import sys
    from collections import Counter

    from weylkit import cli, padic
    calls = Counter()
    for name in ("descend", "window_weyl", "commutant_d"):
        original = getattr(padic, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("weylkit") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    from weylkit.vacuum import SectorDecomposition
    init = SectorDecomposition.__init__

    def counted_init(*args, **kwargs):
        calls["SectorDecomposition"] += 1
        init(*args, **kwargs)

    monkeypatch.setattr(SectorDecomposition, "__init__", counted_init)
    assert cli.main(["padic", "--p", "2", "--k", "1", "--d", "1", "--full-report"]) == 0
    assert '"pass": true' in capsys.readouterr().out
    # commutant_d counts the window model and the descended action once each
    assert calls == {"descend": 1, "window_weyl": 1, "commutant_d": 2, "SectorDecomposition": 1}


def test_window_L_is_not_2L_exactly_for_p2():
    w = window(2, 1, 1)
    assert double_image(w.group, w.L) != w.L
    w3 = window(3, 1, 1)
    assert double_image(w3.group, w3.L) == w3.L


def test_window_radical_pattern():
    # the antisymmetrization halves precision: its radical is the
    # p^{2k-1}-multiples; for k = 1, p = 2 that is exactly 2G
    w = window(2, 1, 1)
    rad = antisymmetrize(w.m).radical()
    from weylkit.groups import subgroup_span
    twoG = subgroup_span(w.group, [2 * g for g in w.group.generators()])
    assert rad == twoG
    w2 = window(2, 2, 1)
    rad2 = antisymmetrize(w2.m).radical()
    assert rad2.order == 4  # (2^{2k-1} multiples)^{2d}

    # odd p: trivial radical
    assert antisymmetrize(window(3, 1, 1).m).radical().order == 1


def test_largest_window_fast():
    import time
    t0 = time.time()
    prof = vacuum_profile(window(2, 2, 2))
    split = window_reducibility_check(prof["descended"])   # the 65 536-operator trace
    elapsed = time.time() - t0
    assert prof["vacuum_dim"] == 4
    assert prof["v2_order"] == 16
    assert prof["report"].passed
    assert split.passed
    assert [c.note for c in split.checks] == ["commutant=4", "commutant=1"]
    assert elapsed < 10.0


def _main(argv, capsys):
    """(exit code, seconds, captured output) of one in-process ``weylkit`` run."""
    from weylkit import cli
    t0 = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - t0, capsys.readouterr()


@pytest.mark.parametrize("p, k, d", [(5, 1, 2), (3, 1, 3), (7, 1, 2)])
def test_odd_windows_past_listing_g_pass_the_benchmark_gate(p, k, d, capsys, monkeypatch):
    # |G| = p^(4kd) is past ENTRY_BUDGET, but sectors walk n = p^(2kd) indices and
    # the transversal lists |G/L| = p^(2kd) cosets
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from workloads import verdict_errors
    argv = ["padic", "--p", str(p), "--k", str(k), "--d", str(d)]
    code, elapsed, out = _main(argv, capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["pass"] and verdict_errors("padic", argv, report) == []
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [
        ("is_heisenberg matches parity", True), ("vacuum is a line", True),
        ("all sectors one-dimensional", True)]
    assert elapsed < 5.0


def test_p2_window_223_passes_the_benchmark_gate(capsys, monkeypatch):
    # |L/2| = 8^6 is past ENTRY_BUDGET, but the descent counts the |G/L| = 4096 cosets of L
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from workloads import verdict_errors
    argv = ["padic", "--p", "2", "--k", "2", "--d", "3"]
    code, elapsed, out = _main(argv, capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["pass"] and verdict_errors("padic", argv, report) == []
    assert (report["summary"]["vacuum_dim"], report["summary"]["v2_order"]) == (8, 64)
    assert elapsed < 5.0


@pytest.mark.parametrize("k, d, cd", [(2, 3, 8), (3, 2, 4)])
def test_p2_window_full_report_counts_the_commutant(k, d, cd, capsys):
    # the window commutants of dimension 4096 are counted over the radical, not over 4096^2 pairs
    code, elapsed, out = _main(["padic", "--p", "2", "--k", str(k), "--d", str(d), "--full-report"],
                               capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["pass"]
    assert [c["note"] for c in report["checks"][-2:]] == [f"commutant={cd}", "commutant=1"]
    assert cd == 2 ** d and elapsed < 5.0


def test_odd_window_full_report_proves_irreducibility(capsys):
    # odd p: the full report adds the window law, proved from the formula's data, and the
    # commutant of the window model, the scalars alone
    argv = ["padic", "--p", "3", "--k", "1", "--d", "2"]
    code, _, out = _main(argv + ["--full-report"], capsys)
    assert code == 0
    full = json.loads(out.out)
    assert full["pass"]
    assert full["checks"][-2:] == [
        {"name": "window law", "pass": True,
         "note": "proved from the quadratic data of the window formula"},
        {"name": "window model irreducible", "pass": True, "note": "commutant=1"}]
    code, _, out = _main(argv, capsys)
    assert code == 0
    assert json.loads(out.out)["checks"] == full["checks"][:-2]


def test_p2_window_215_exits_2_before_the_m0_table(capsys):
    # the |V2|^2 = 1024^2 entries of the m0 table are past ENTRY_BUDGET, refused before it is built
    code, elapsed, out = _main(["padic", "--p", "2", "--k", "1", "--d", "5"], capsys)
    assert code == 2 and elapsed < 1.0
    assert "table entries 1048576 exceeds ENTRY_BUDGET = 262144" in out.err


def test_window_past_dim_cap_exits_2(capsys):
    code, _, out = _main(["padic", "--p", "3", "--k", "2", "--d", "2"], capsys)
    assert code == 2
    assert "carrier dimension 6561 exceeds --max-dim = 4096" in out.err


@pytest.mark.parametrize("p, k, d, dim", [(3, 2, 2, 6561), (11, 1, 2, 14641)])
def test_odd_windows_past_max_dim_default_run_with_the_flag(p, k, d, dim, capsys):
    # --max-dim is the only dimension limit: raised, the window runs and every check passes
    argv = ["padic", "--p", str(p), "--k", str(k), "--d", str(d)]
    code, _, out = _main(argv + ["--max-dim", "20000"], capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["pass"] and report["summary"]["dimension"] == dim
    assert report["checks"] and all(c["pass"] for c in report["checks"])
    code, _, out = _main(argv, capsys)
    assert code == 2
    assert f"carrier dimension {dim} exceeds --max-dim = 4096" in out.err
