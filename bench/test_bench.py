"""Self-tests of the benchmark: tracer hygiene, the gate and the scenario generator.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from importlib import import_module  # noqa: E402

# weylkit re-exports a function named ``vacuum``, so take modules from sys.modules.
cli, models, padic, vacuum = (import_module(f"weylkit.{name}")
                              for name in ("cli", "models", "padic", "vacuum"))

SMALL_JOB = ["padic", "--p", "2", "--k", "1", "--d", "1", "--full-report", "--seed", "3"]


def traced_job(argv):
    t = tr.Tracer()
    with t:
        (rc, text), root = t.run_root("job", run.run_job, cli.main, argv)
    return t, rc, text, root


def test_tracer_patches_every_binding_and_restores_them():
    before = tr.snapshot_bindings()
    bound_in = {"descend": (vacuum, padic, cli), "commutant_d": (models, vacuum, padic, cli)}
    originals = {(mod, name): getattr(mod, name)
                 for name, mods in bound_in.items() for mod in mods}
    with tr.Tracer():
        for (mod, name), fn in originals.items():
            assert getattr(mod, name).__wrapped__ is fn
        assert isinstance(vars(vacuum.SectorDecomposition)["labeled"], property)
        assert tr.snapshot_bindings() != before
    assert tr.snapshot_bindings() == before
    assert all(getattr(mod, name) is fn for (mod, name), fn in originals.items())


def test_traced_report_is_byte_identical_and_self_times_add_up():
    rc0, plain = run.run_job(cli.main, SMALL_JOB)
    before = tr.snapshot_bindings()
    t, rc, text, root = traced_job(SMALL_JOB)
    assert tr.snapshot_bindings() == before
    assert rc == rc0 == 0 and text == plain
    assert sum(t.self_s.values()) == pytest.approx(root, abs=1e-9)
    keys = {span[3] for span in t.spans}
    assert {"vacuum.descend_s", "vacuum.clifford_s", "models.commutant_d_s",
            "padic.profile_self_s", "groups.elements_s"} <= keys
    roots = [span for span in t.spans if span[2] is None]
    assert len(roots) == 1 and roots[0][3] == tr.ROOT_KEY
    assert t.counts["phases.new.count"] > 0 and t.counts["models.operator_build.count"] > 0


def test_counts_repeat_exactly():
    first, *_ = traced_job(SMALL_JOB)
    second, *_ = traced_job(SMALL_JOB)
    assert first.counts == second.counts


def test_gate_rejects_wrong_verdicts_and_changed_bytes():
    argv = ["padic", "--p", "3", "--k", "1", "--d", "1"]
    report = {"pass": True, "summary": {"dimension": 9, "vacuum_dim": 1,
                                        "sector_dims": {"(0, 0)": 1}}}
    gate = run.Gate()
    gate.check("padic-3-1-1", argv, 0, json.dumps(report), [])
    assert not gate.failures
    gate.check("padic-3-1-1", argv, 0, json.dumps(report) + " ", [])
    assert gate.failures[-1]["errors"] == ["report bytes differ from the job's first run"]
    report["summary"]["vacuum_dim"] = 2
    assert workloads.verdict_errors("padic-3-1-1", argv, report)
    fermion = {"summary": {"dimension": 4, "vacuum_dim": 2, "v2_order": 4,
                           "clifford_gram": [[0, 1], [1, 1]]}}
    assert workloads.verdict_errors("padic-2-1-1", ["padic", "--p", "2", "--k", "1", "--d", "1"],
                                    fermion) == ["clifford_gram = [[0, 1], [1, 1]]"]
    gate.check("model-7373", ["model"], 1, "{}", [])
    assert len(gate.failures) == 2 and gate.attempted == 3


def test_generator_is_deterministic_and_seed_keeps_shapes(tmp_path):
    a = workloads.write_scenarios(workloads.induced_scenarios(5), tmp_path / "a")
    b = workloads.write_scenarios(workloads.induced_scenarios(5), tmp_path / "b")
    assert all(Path(a[k]).read_bytes() == Path(b[k]).read_bytes() for k in a)
    one, two = workloads.induced_scenarios(1), workloads.induced_scenarios(2)
    assert one != two

    def shape(s):
        return {k: v for k, v in s.items() if k != "multiplier"}, \
            [[len(x) for x in s["multiplier"]["B"]]]

    assert all(shape(one[k]) == shape(two[k]) for k in one)


def test_second_seed_passes_the_gate(tmp_path):
    gate = run.Gate()
    run.run_pass(cli.main, workloads.jobs("induced-exact", 2, tmp_path), gate)
    assert gate.attempted == 5 and not gate.failures


def test_speed_scales_stretches_outside_the_samples():
    speed = run.Speed()
    half = run.REF_NOMINAL_S / 2            # the loop runs twice as fast as nominal
    speed.samples = [(1.0, half), (2.0, half), (3.0, half)]
    scaled, outside = speed.stretch(0.5, 2.5)
    assert outside == pytest.approx(2.0 - 2 * half)
    assert scaled == pytest.approx(2 * outside)
    with pytest.raises(ValueError):
        speed.stretch(2.5, 3.5)             # no sample closes it


def test_speed_samples_while_its_block_runs():
    speed = run.Speed()
    with speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert len(speed.samples) >= 4 and speed.samples[-1][0] >= t1
    assert speed.rate(t0, t1) > 0


def test_registered_metrics_match_the_output():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "bench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = run_cli(["--workload", "padic-boson", "--seed", "4", "--seconds", "1",
                       "--trace", str(trace)])
        assert out["correct"] and out["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        assert got == want


def run_cli(args):
    res = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         capture_output=True, text=True, timeout=180, check=True)
    return json.loads(res.stdout.splitlines()[-1])
