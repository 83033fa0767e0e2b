"""Scenario-driven command line front end.

Scenarios are JSON files; reports are JSON (default) or text.  Exit codes:
0 all checks pass, 1 at least one check fails, 2 invalid input, a carrier
dimension above ``--max-dim`` (default ``errors.MAX_DIM_DEFAULT``) or more
materialised entries than ``errors.ENTRY_BUDGET``.  Reports are
byte-identical across runs for a fixed scenario and seed: timings are only
included on request.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from math import lcm

import numpy as np

from . import __version__
from .errors import (MAX_DIM_DEFAULT, DefectError, InputError, PreconditionError, ResourceLimitError,
                     UnsupportedOperationError)
from .groups import FinAbGroup, Subgroup, subgroup_span
from .isotropy import is_maximal_isotropic, polar, polar_tilde
from .models import (
    ProjectiveRep,
    _same_multiplier,
    check_rep_law,
    commutant_d,
    commutator_scalar_check,
    induced_model,
    intertwiner,
)
from .multipliers import (
    Bicharacter,
    Multiplier,
    PhaseMap,
    TableMultiplier,
    antisymmetrize,
    check_multiplier,
    is_heisenberg,
)
from .padic import vacuum_profile, window_group, window_reducibility_check, window_weyl
from .phases import Phase, as_phase
from .reports import VerificationReport
from .vacuum import clifford_basis, descend, normalizer_check, permute_check, sectors

TASKS = ("verify", "isotropy", "model", "vacuum", "fermion", "padic", "svn")


class SchemaError(InputError):
    pass


def _expect_keys(obj: dict, where: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")


def parse_group(obj) -> FinAbGroup:
    _expect_keys(obj, "group", {"moduli"})
    return FinAbGroup(obj["moduli"])


def parse_phase_matrix(rows):
    return [[as_phase(v) for v in row] for row in rows]


def parse_multiplier(obj, G: FinAbGroup) -> Multiplier:
    _expect_keys(obj, "multiplier", {"type"}, {"B", "values", "pairing", "left_rank"})
    kind = obj["type"]
    if kind == "bicharacter":
        if "B" not in obj:
            raise SchemaError("multiplier: bicharacter needs B")
        return Bicharacter(G, parse_phase_matrix(obj["B"]))
    if kind == "weyl_product":
        if "pairing" not in obj or "left_rank" not in obj:
            raise SchemaError("multiplier: weyl_product needs pairing and left_rank")
        return Bicharacter.weyl_product(G, int(obj["left_rank"]),
                                        parse_phase_matrix(obj["pairing"]))
    if kind == "table":
        if "values" not in obj:
            raise SchemaError("multiplier: table needs values")
        vals = parse_phase_matrix(obj["values"])
        den = lcm(*(v.den for row in vals for v in row))
        # Python ints, which TableMultiplier bounds before it makes an int64 array
        return TableMultiplier(G, den, [[v.numerator_at(den) for v in row] for row in vals])
    raise SchemaError(f"multiplier: unknown type {kind!r}")


def parse_subgroup(obj, G: FinAbGroup) -> Subgroup:
    _expect_keys(obj, "subgroup", {"generators"})
    return subgroup_span(G, [G.element(c) for c in obj["generators"]])


def parse_splitting(obj, G: FinAbGroup) -> PhaseMap:
    _expect_keys(obj, "splitting", {"values"})
    vals = {}
    for entry in obj["values"]:
        _expect_keys(entry, "splitting value", {"element", "phase"})
        vals[tuple(G.element(entry["element"]).coords)] = as_phase(entry["phase"])
    return PhaseMap(G, vals)


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _check_dim(dim: int, args):
    if dim > args.max_dim:
        raise ResourceLimitError("carrier dimension", dim, "--max-dim", args.max_dim)


def build_model(scenario: dict, G: FinAbGroup, m: Multiplier, args) -> ProjectiveRep:
    """The scenario's ``model`` entry, else the model induced over its ``subgroup`` and
    ``splitting``; the dimension is checked against ``--max-dim`` before the model is built."""
    model = scenario.get("model")
    if model is None:
        model = {"type": "induced",
                 **{key: scenario[key] for key in ("subgroup", "splitting") if key in scenario}}
    elif "splitting" in scenario:
        raise SchemaError("scenario: with a 'model' entry the splitting belongs in it")
    kind = model.get("type") if isinstance(model, dict) else None
    if kind == "window":
        # the window fixes its own group and multiplier: the scenario's must be the same
        _expect_keys(model, "model", {"type", "p", "k", "d"})
        p, k, d = int(model["p"]), int(model["k"]), int(model["d"])
        _check_dim(p ** (2 * k * d), args)
        w = window_group(p, k, d)
        if G.moduli != w.group.moduli:
            raise SchemaError(f"model: the window (p={p}, k={k}, d={d}) lives on the moduli "
                              f"{list(w.group.moduli)}, not the scenario's {list(G.moduli)}")
        if not _same_multiplier(m, w.m):
            raise SchemaError(f"model: the scenario's multiplier is not the symplectic form of "
                              f"the window (p={p}, k={k}, d={d})")
        return window_weyl(w)
    _expect_keys(model, "model", {"type"}, {"subgroup", "splitting"})
    if kind == "induced":
        if "subgroup" not in model:
            raise SchemaError("an induced model needs a subgroup")
        A = parse_subgroup(model["subgroup"], G)
        _check_dim(G.order // A.order, args)
        c = parse_splitting(model["splitting"], G) if "splitting" in model else None
        return induced_model(G, m, A, c)
    raise SchemaError(f"model: unknown type {kind!r}")


# ---------------------------------------------------------------------------
# task runners; each returns (VerificationReport, summary dict)


def run_verify(scenario, args):
    _expect_keys(scenario, "scenario", {"task", "group", "multiplier"}, {"seed"})
    G = parse_group(scenario["group"])
    m = parse_multiplier(scenario["multiplier"], G)
    rep = check_multiplier(m)
    summary = {"backing": m.backing(), "group": list(G.moduli)}
    if rep.passed:
        summary["is_heisenberg"] = is_heisenberg(m)
    return rep, summary


def run_isotropy(scenario, args):
    _expect_keys(scenario, "scenario", {"task", "group", "multiplier", "subgroup"}, {"seed"})
    G = parse_group(scenario["group"])
    m = parse_multiplier(scenario["multiplier"], G)
    A = parse_subgroup(scenario["subgroup"], G)
    rep = VerificationReport("isotropy")
    P = polar(A, m)
    maximal = is_maximal_isotropic(A, m)
    rep.add("polar computed", True, note=f"|polar| = {P.order}")
    rep.add("maximal isotropic", maximal, note="A equals its polar" if maximal
            else "A differs from its polar")
    summary = {"polar_order": P.order, "polar_generators": [list(g.coords) for g in P.generators],
               "maximal": maximal}
    if m.bichar is not None and m.bichar.is_alternating:
        try:
            lhs, rhs = polar_tilde(A, m)
            rep.add("polar relation for m~", True, note=f"both sides have order {lhs.order}")
            summary["polar_tilde_order"] = lhs.order
        except DefectError as exc:
            rep.add("polar relation for m~", False, witness=exc.witness)
    return rep, summary


def run_model(scenario, args):
    _expect_keys(scenario, "scenario",
                 {"task", "group", "multiplier"},
                 {"subgroup", "splitting", "model", "seed"})
    G = parse_group(scenario["group"])
    m = parse_multiplier(scenario["multiplier"], G)
    law = args.check_law or not (args.commutant or args.dump_matrices)
    W = build_model(scenario, G, m, args)
    rep = VerificationReport(f"model {W.label}")
    summary = {"dimension": W.dim}
    if law:
        rep.extend(check_rep_law(W))
        rep.extend(commutator_scalar_check(W))
    if args.commutant:
        cd = commutant_d(W)
        summary["commutant_dimension"] = cd
        rep.add("commutant computed", True, note=f"dimension {cd}")
    if args.dump_matrices:
        rows = ((src, num, den) for SRC, NUM, den in W.blocks() for src, num in zip(SRC, NUM))
        summary["matrices"] = [
            {"element": list(x.coords), "permutation": src.tolist(),
             "phases": [str(Phase(int(n), den)) for n in num]}
            for x, (src, num, den) in zip(W.group.elements(), rows)]
    return rep, summary


def run_vacuum(scenario, args):
    _expect_keys(scenario, "scenario",
                 {"task", "group", "multiplier", "subgroup"},
                 {"model", "splitting", "seed"})
    G = parse_group(scenario["group"])
    m = parse_multiplier(scenario["multiplier"], G)
    W = build_model(scenario, G, m, args)
    S = sectors(W, parse_subgroup(scenario["subgroup"], G))
    rep = VerificationReport("vacuum structure")
    rep.extend(S.eigen_check())
    rep.extend(normalizer_check(S))
    for g in G.generators():
        rep.extend(permute_check(S, g), prefix=f"x={g.coords} ")
    summary = {
        "vacuum_dim": S.vacuum_dim,
        "sector_dims": {str(k): v for k, v in (S.coset_dims().items() if S.labeled
                                               else S.dims.items())},
        "labeled_by_cosets": S.labeled,
    }
    return rep, summary


def run_fermion(scenario, args):
    _expect_keys(scenario, "scenario",
                 {"task", "group", "multiplier", "subgroup"},
                 {"model", "splitting", "seed"})
    G = parse_group(scenario["group"])
    m = parse_multiplier(scenario["multiplier"], G)
    W = build_model(scenario, G, m, args)
    D = descend(W, parse_subgroup(scenario["subgroup"], G))
    C = clifford_basis(D)
    rep = VerificationReport("fermionic structure")
    rep.extend(D.report)
    # clifford_basis decides the relations exactly: the residual is 0.0 iff they hold
    rep.add("clifford residual", C.max_residual == 0.0, residual=C.max_residual)
    summary = {
        "vacuum_dim": D.vacuum_basis.shape[1],
        "v2_order": D.v2.order,
        "d": D.v2.rank // 2,
        "clifford_residual_max": C.max_residual,
        "clifford_gram": C.gram,
        "section": [list(c) for c in D.section_coords],
    }
    return rep, summary


def run_padic(scenario, args):
    if scenario is not None:
        _expect_keys(scenario, "scenario", {"task", "padic"}, {"seed"})
        pd = scenario["padic"]
        _expect_keys(pd, "padic", {"p", "k", "d"})
        p, k, d = int(pd["p"]), int(pd["k"]), int(pd["d"])
    else:
        if args.p is None or args.k is None or args.d is None:
            raise SchemaError("padic task needs --p, --k, --d or a scenario")
        p, k, d = args.p, args.k, args.d
    _check_dim(p ** (2 * k * d), args)
    w = window_group(p, k, d)
    prof = vacuum_profile(w)
    rep: VerificationReport = prof["report"]
    if args.full_report:
        rep.add("window law", prof["model"].law_holds is True,
                note="proved from the quadratic data of the window formula")
    if args.full_report and p == 2:
        rep.extend(window_reducibility_check(prof["descended"]))
    elif args.full_report:
        # odd p: the radical of the window's commutator form is 0, and the count is (dim / p^{2kd})^2
        cd = commutant_d(prof["model"])
        rep.add("window model irreducible", cd == 1, note=f"commutant={cd}")
    summary = {
        "p": p, "k": k, "d": d,
        "dimension": prof["dim"],
        "is_heisenberg": prof["is_heisenberg"],
        "vacuum_dim": prof["vacuum_dim"],
        "v2_order": prof["v2_order"],
    }
    if prof["sector_dims"] is not None:
        summary["sector_dims"] = prof["sector_dims"]
    if p == 2:
        summary["clifford_residual_max"] = prof["clifford_residual_max"]
        summary["clifford_gram"] = prof["clifford_gram"]
        summary["section"] = [list(c) for c in prof["section"]]
        summary["m0_literal_match"] = prof["m0_literal_match"]
    return rep, summary


def run_svn(scenario, args):
    """Stone-von Neumann uniqueness for two maximal isotropic subgroups: the induced models
    have a one-dimensional intertwiner space, and its normalized element is unitary.

    Both verdicts are exact.  The second is Schur's lemma, as ``intertwiner`` decides
    it: T*T commutes with W1, whose commutant is 1, so T*T is a scalar and the
    normalized T is unitary exactly when the dimensions agree; it passes when
    ``unitary_defect`` is 0.0.
    """
    _expect_keys(scenario, "scenario", {"task", "group", "multiplier", "subgroups"}, {"seed"})
    G = parse_group(scenario["group"])
    m = parse_multiplier(scenario["multiplier"], G)
    subs = scenario["subgroups"]
    if not isinstance(subs, list) or len(subs) != 2:
        raise SchemaError("svn task needs exactly two subgroups")
    A1 = parse_subgroup(subs[0], G)
    A2 = parse_subgroup(subs[1], G)
    mt = antisymmetrize(m)
    for name, A in (("first", A1), ("second", A2)):
        if not is_maximal_isotropic(A, mt):
            raise SchemaError(f"{name} subgroup is not maximal isotropic")
    _check_dim(G.order // A1.order, args)
    W1 = induced_model(G, m, A1)
    W2 = induced_model(G, m, A2)
    res = intertwiner(W1, W2)
    rep = VerificationReport("uniqueness instance")
    rep.add("intertwiner dimension 1", res["dimension"] == 1,
            note=f"dimension {res['dimension']}")
    defect = res.get("unitary_defect")
    rep.add("normalized intertwiner unitary", defect == 0.0, residual=defect)
    summary = {"dimensions": [W1.dim, W2.dim], "intertwiner_dimension": res["dimension"],
               "unitary_defect": defect}
    return rep, summary


RUNNERS = {
    "verify": run_verify,
    "isotropy": run_isotropy,
    "model": run_model,
    "vacuum": run_vacuum,
    "fermion": run_fermion,
    "padic": run_padic,
    "svn": run_svn,
}


@cache
def build_parser():
    """The one argument parser of the process, built on the first call: each
    ``parse_args`` gives a fresh namespace, and help reads the terminal width when it
    is formatted, so ``main`` can share it."""
    ap = argparse.ArgumentParser(prog="weylkit",
                                 description="finite Heisenberg group models and checks")
    ap.add_argument("task", choices=TASKS)
    ap.add_argument("--scenario", help="path to a scenario JSON file")
    ap.add_argument("--out", help="write the report here instead of stdout")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--seed", type=int, default=0, help="recorded in the report; no verdict reads it")
    ap.add_argument("--max-dim", type=int, default=MAX_DIM_DEFAULT)
    ap.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (breaks byte-identical reports)")
    ap.add_argument("--check-law", action="store_true", help="model task: run the law checks")
    ap.add_argument("--commutant", action="store_true", help="model task: compute the commutant")
    ap.add_argument("--dump-matrices", action="store_true",
                    help="model task: dump monomial operators")
    ap.add_argument("--p", type=int, help="padic task: prime")
    ap.add_argument("--k", type=int, help="padic task: precision")
    ap.add_argument("--d", type=int, help="padic task: degrees of freedom")
    ap.add_argument("--full-report", action="store_true",
                    help="padic task: include the window law and commutant (p = 2: the "
                         "reducibility split; odd p: irreducibility)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    scenario = None
    try:
        if args.scenario is not None:
            scenario = load_scenario(args.scenario)
            _expect_keys(scenario, "scenario", {"task"},
                         {"group", "multiplier", "subgroup", "subgroups", "splitting",
                          "model", "padic", "seed"})
            if scenario["task"] != args.task:
                raise SchemaError(
                    f"scenario task {scenario['task']!r} does not match {args.task!r}")
            if "seed" in scenario:
                args.seed = int(scenario["seed"])
        elif args.task != "padic":
            raise SchemaError("this task needs --scenario")
        rep, summary = RUNNERS[args.task](scenario, args)
    except (SchemaError, InputError, UnsupportedOperationError, ResourceLimitError,
            PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DefectError as exc:
        report = {**_provenance(args), "pass": False,
                  "defect": str(exc), "witness": getattr(exc, "witness", None)}
        _emit(report, args)
        return 1

    report = {
        **_provenance(args),
        "summary": summary,
        "checks": [c.to_dict() for c in rep.checks],
        "pass": rep.passed,
        "timings": {"total_s": round(time.time() - t0, 3)} if args.timings else None,
    }
    _emit(report, args, text=str(rep) if args.format == "text" else None)
    return 0 if rep.passed else 1


def _provenance(args) -> dict:
    """The leading fields of every JSON report: task, seed and versions."""
    return {"task": args.task, "seed": args.seed,
            "versions": {"weylkit": __version__, "numpy": np.__version__}}


def _emit(report: dict, args, text: str | None = None):
    if args.format == "text" and text is not None:
        payload = text + "\n"
    else:
        payload = json.dumps(report, indent=2, default=_json_default) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_default(obj):
    if isinstance(obj, Phase):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


if __name__ == "__main__":
    sys.exit(main())
