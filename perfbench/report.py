"""What one workload run measured, and how it is printed."""

from __future__ import annotations

import hashlib
import json


class Outcome:
    """Metrics, checks and trace analysis of one workload pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        # Gated end-to-end metrics: name -> (value, unit).
        self.e2e: dict[str, tuple[float, str]] = {}
        # The workload's own metrics by their descriptive names:
        # (name, value, unit, note).
        self.named: list[tuple[str, float, str, str]] = []
        # Per-layer metrics (traced pass): name -> (value, unit).
        self.layers: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[str] = []
        self.counts: dict[str, int] = {}
        # Whether the counts agreed wherever they were compared; None
        # when this pass had nothing to compare them with.
        self.counts_repeat: bool | None = None
        self.counts_note = ""
        self.wall_per_op: list[float] = []
        self.resources: dict[str, dict] = {}
        self.reconciliations: list[str] = []

    def set_counts(self, counts: dict, repeat: bool | None, note: str) -> None:
        """Deterministic counters; ``repeat`` is whether they agreed
        wherever the pass could compare them (None: nowhere)."""
        self.counts = counts
        self.counts_repeat = repeat
        self.counts_note = note

    def compare_counts(self, plain: "Outcome") -> None:
        """Check this (traced) pass's counts against the untraced pass of
        the same inputs; only counts both passes have are compared."""
        shared = sorted(set(self.counts) & set(plain.counts))
        differ = [name for name in shared if self.counts[name] != plain.counts[name]]
        self.counts_repeat = (self.counts_repeat is not False and bool(shared)
                              and not differ)
        self.counts_note += (
            f"; {len(shared) - len(differ)} of {len(shared)} equal those of "
            "the untraced pass" + (f" (differ: {', '.join(differ)})" if differ else "")
        )

    def counts_digest(self) -> str:
        blob = json.dumps(sorted(self.counts.items())).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def reconcile(self, unit: str, wall: float, rows, absent) -> None:
        """Record one span reconciliation: ``rows`` are (layer, seconds
        per ``unit``); what they leave of ``wall`` is unattributed."""
        attributed = sum(value for _name, value in rows)
        lines = [f"reconciliation per {unit}: wall {wall:.4f} s"]
        for name, value in sorted(rows, key=lambda r: -r[1]):
            share = value / wall if wall else 0.0
            lines.append(f"  {name:<52} {value:10.4f} s  {share:6.1%}")
        rest = wall - attributed
        lines.append(
            f"  {'unattributed remainder':<52} {rest:10.4f} s  "
            f"{(rest / wall if wall else 0.0):6.1%}"
        )
        for name in sorted(absent):
            lines.append(f"  {name:<52} absent (hook point not found)")
        self.reconciliations.extend(lines)
        self.layers.setdefault("trace.unattributed_share",
                               (rest / wall if wall else 0.0, "ratio"))

    def lines(self, traced: bool) -> list[str]:
        out = [f"workload {self.workload}: attempted {self.attempted}, "
               f"failed {self.failed}"]
        for name, value, unit, note in self.named:
            out.append(f"  {name:<24} {value:12.4f} {unit:<6} ({note})")
        out.append("checks:")
        out += [f"  {line}" for line in self.checks]
        verdict = {True: "repeat exactly", False: "DO NOT repeat",
                   None: "not compared in this pass"}[self.counts_repeat]
        out.append(
            f"exact counts ({self.counts_note}; {verdict}; "
            f"digest {self.counts_digest()}):"
        )
        out += [f"  {name} = {value}" for name, value in sorted(self.counts.items())]
        out.append("per-role resources (from /proc):")
        for role, reading in sorted(self.resources.items()):
            extra = ""
            if "records" in reading and reading.get("records"):
                extra = (f", {reading['wchar'] / reading['records']:.0f} "
                         f"bytes written/record")
            out.append(
                f"  {role:<10} cpu {reading['cpu_s']:8.2f} s, wchar "
                f"{reading['wchar']:>12} B, VmHWM {reading['vmhwm_mb']:7.1f} MB"
                f"{extra}"
            )
        if traced:
            out += self.reconciliations
        return out
