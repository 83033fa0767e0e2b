"""Uniform check results used by every verification operation and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float | None = None
    witness: object = None
    note: str = ""

    def to_dict(self):
        out = {"name": self.name, "pass": self.passed}
        if self.residual is not None:
            out["residual"] = self.residual
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, passed, residual=None, witness=None, note=""):
        self.checks.append(CheckResult(name, bool(passed), residual, witness, note))
        return self.checks[-1]

    def extend(self, other: "VerificationReport", prefix: str = ""):
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.passed, c.residual, c.witness,
                                           c.note))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        vals = [c.residual for c in self.checks if c.residual is not None]
        return max(vals) if vals else 0.0

    def __str__(self):
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            bits = [f"[{'pass' if c.passed else 'FAIL'}] {c.name}"]
            if c.residual is not None:
                bits.append(f"residual={c.residual:.3g}")
            if c.witness is not None and not c.passed:
                bits.append(f"witness={c.witness}")
            if c.note:
                bits.append(c.note)
            lines.append("   " + "  ".join(bits))
        return "\n".join(lines)
