"""Workload job lists, the seeded scenario generator and the correctness gate.

A job is one ``weylkit`` command line: ``(name, argv)``.  Scenario files are
generated from the seed into a directory of the caller's choosing; the CLI
receives only argv and those files.  Every job also gets ``--seed <seed>``.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

WORKLOADS = ("padic-fermion", "padic-boson", "induced-exact")

# (p, k, d) windows; the fermionic ones run with --full-report.
FERMION_WINDOWS = ((2, 1, 3), (2, 3, 1), (2, 2, 2))
BOSON_WINDOWS = ((3, 1, 2), (3, 2, 1), (5, 1, 1), (7, 1, 1), (11, 1, 1),
                 (13, 1, 1), (17, 1, 1), (19, 1, 1))

# The job users wait on longest in each workload (slowest_job_s).
SLOWEST_JOB = {
    "padic-fermion": "padic-2-2-2",
    "padic-boson": "padic-19-1-1",
    "induced-exact": "svn-7373",
}


def _phase(num: int, den: int) -> str:
    return f"{num % den}/{den}"


def _block_symplectic(moduli, units):
    """B[i][i+r] = u_i/N_i and B[i+r][i] = -u_i/N_i on (Z/N_1 x .. x Z/N_r)^2."""
    r = len(units)
    B = [["0"] * (2 * r) for _ in range(2 * r)]
    for i, (n, u) in enumerate(zip(moduli[:r], units)):
        B[i][i + r] = _phase(u, n)
        B[i + r][i] = _phase(-u, n)
    return B


def _unit(rng: random.Random, n: int) -> int:
    """A uniformly drawn unit of Z/n."""
    return rng.choice([u for u in range(1, n) if gcd(u, n) == 1])


def induced_scenarios(seed: int) -> dict:
    """Scenario dicts for the induced-exact workload, keyed by file stem.

    The seed draws only the unit numerators and the bicharacter entries; the
    shapes, subgroups and therefore the cost are the same for every seed.
    """
    rng = random.Random(seed)
    moduli = [8, 8, 4]
    B = [[_phase(rng.randrange(gcd(a, b)), gcd(a, b)) for b in moduli] for a in moduli]
    small = [7, 3, 7, 3]
    big = [9, 5, 9, 5]
    m_small = {"type": "bicharacter",
               "B": _block_symplectic(small, [_unit(rng, 7), _unit(rng, 3)])}
    m_big = {"type": "bicharacter",
             "B": _block_symplectic(big, [_unit(rng, 9), _unit(rng, 5)])}
    position = {"generators": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    momentum = {"generators": [[0, 0, 1, 0], [0, 0, 0, 1]]}
    lagrangian = {"generators": [[3, 0, 0, 0], [0, 0, 3, 0], [0, 1, 0, 0]]}
    return {
        "verify-884": {"task": "verify", "group": {"moduli": moduli},
                       "multiplier": {"type": "bicharacter", "B": B}},
        "model-7373": {"task": "model", "group": {"moduli": small},
                       "multiplier": m_small, "subgroup": position},
        "svn-7373": {"task": "svn", "group": {"moduli": small},
                     "multiplier": m_small, "subgroups": [position, momentum]},
        "vacuum-9595": {"task": "vacuum", "group": {"moduli": big},
                        "multiplier": m_big, "subgroup": lagrangian},
        "isotropy-9595": {"task": "isotropy", "group": {"moduli": big},
                          "multiplier": m_big, "subgroup": lagrangian},
    }


def write_scenarios(scenarios: dict, directory: Path) -> dict:
    """Write each scenario as ``<stem>.json``; returns stem -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, scenario in scenarios.items():
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")
        paths[stem] = str(path)
    return paths


# Extra argv per induced-exact job; the task is the first word of the stem.
INDUCED_FLAGS = {"model-7373": ["--check-law", "--commutant"]}


def jobs(workload: str, seed: int, scenario_dir: Path) -> list:
    """The workload's fixed job list as (name, argv) pairs."""
    seed_args = ["--seed", str(seed)]
    if workload == "padic-fermion":
        return [(f"padic-{p}-{k}-{d}",
                 ["padic", "--p", str(p), "--k", str(k), "--d", str(d), "--full-report"]
                 + seed_args) for p, k, d in FERMION_WINDOWS]
    if workload == "padic-boson":
        return [(f"padic-{p}-{k}-{d}",
                 ["padic", "--p", str(p), "--k", str(k), "--d", str(d)] + seed_args)
                for p, k, d in BOSON_WINDOWS]
    if workload == "induced-exact":
        paths = write_scenarios(induced_scenarios(seed), scenario_dir)
        return [(stem, [stem.split("-")[0], "--scenario", path]
                 + INDUCED_FLAGS.get(stem, []) + seed_args)
                for stem, path in paths.items()]
    raise ValueError(f"unknown workload {workload!r}")


def smoke_jobs(scenario_root: Path) -> list:
    """The committed example scenarios, each run with its own task."""
    out = []
    for path in sorted(scenario_root.glob("*.json")):
        task = json.loads(path.read_text())["task"]
        out.append((f"smoke-{path.stem}", [task, "--scenario", str(path)]))
    return out


# ---------------------------------------------------------------------------
# correctness gate: verdict fields against known answers


def _all_ones_off_diagonal(gram, n: int) -> bool:
    return (len(gram) == n and all(len(row) == n for row in gram)
            and all(gram[i][j] == (0 if i == j else 1) for i in range(n) for j in range(n)))


def verdict_errors(name: str, argv: list, report: dict) -> list:
    """Verdict fields of one job's JSON report that differ from the known answer."""
    errors = []
    s = report.get("summary", {})

    def expect(field, want):
        if s.get(field) != want:
            errors.append(f"{field} = {s.get(field)!r}, expected {want!r}")

    task = argv[0]
    if task == "padic":
        p, k, d = (int(argv[argv.index(flag) + 1]) for flag in ("--p", "--k", "--d"))
        expect("dimension", p ** (2 * k * d))
        if p == 2:
            expect("vacuum_dim", 2 ** d)
            expect("v2_order", 4 ** d)
            if not _all_ones_off_diagonal(s.get("clifford_gram", []), 2 * d):
                errors.append(f"clifford_gram = {s.get('clifford_gram')!r}")
        else:
            expect("vacuum_dim", 1)
            if any(v != 1 for v in s.get("sector_dims", {}).values()):
                errors.append("a sector is not one-dimensional")
    elif name.startswith("model-"):
        expect("commutant_dimension", 1)
    elif name.startswith("svn-"):
        expect("intertwiner_dimension", 1)
    elif name.startswith("vacuum-"):
        expect("vacuum_dim", 1)
        dims = s.get("sector_dims", {})
        if not dims or any(v != 1 for v in dims.values()):
            errors.append("vacuum sectors are not all one-dimensional")
    return errors
