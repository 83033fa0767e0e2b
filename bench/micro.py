"""Single-call microbenchmarks of the hot per-element operations, in microseconds."""

from __future__ import annotations

import statistics
import timeit

REPEATS = 15
TARGET_S = 0.01      # aim for about this long per repeat


def per_call_us(stmt: str, env: dict) -> float:
    """Median over REPEATS of the mean time of one ``stmt``, in microseconds."""
    timer = timeit.Timer(stmt, globals=env)
    number, _ = timer.autorange()        # a count that takes at least 0.2 s
    number = max(1, int(number * TARGET_S / 0.2))
    return statistics.median(timer.timeit(number) / number * 1e6 for _ in range(REPEATS))


def run() -> dict:
    from weylkit import FinAbGroup, Phase, window_group, window_weyl

    G = FinAbGroup([8, 8, 4])
    w = window_group(2, 2, 2)
    W = window_weyl(w)          # |G| = 65536 > 4096, so operators are never cached
    x = w.group.element([1, 2, 3, 5])
    y = w.group.element([7, 4, 1, 2])
    return {
        "phases.add_us": per_call_us("a + b", {"a": Phase(1, 8), "b": Phase(3, 8)}),
        "groups.element_add_us": per_call_us(
            "a + b", {"a": G.element([1, 2, 3]), "b": G.element([7, 5, 2])}),
        "multipliers.bichar_call_us": per_call_us(
            "B(x, y)", {"B": w.m.bichar, "x": x, "y": y}),
        "models.window_op_build_us": per_call_us("W.operator(x)", {"W": W, "x": x}),
    }
