"""Deterministic fault injection for the native-harness seams.

A :class:`FaultPlan` maps *fault sites* to firing probabilities and draws
from one seeded RNG stream per site, so a campaign with the same seed
injects exactly the same failures regardless of how many other sites are
configured or what work runs in between.  The native runner, the
optimizer and (through them) the whole CLI consult the ambient plan via
:func:`current_plan`; with no plan installed every query is a cheap
``False``.

Spec syntax (the CLI's ``--inject`` / the ``REPRO_INJECT`` env var)::

    cc-timeout:0.3,malformed-stdout:1

``site:rate`` entries, comma-separated; a bare ``site`` means rate 1.
See :data:`FAULT_SITES` for the seam list and ``docs/ROBUSTNESS.md`` for
what each one simulates.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["FAULT_SITES", "FaultPlan", "current_plan", "inject"]

# Every injectable seam and what firing it simulates.  The native runner
# fabricates the *observable outcome* of the failure (a timeout, a
# signal-killed compiler, a garbage protocol line) so the real error
# handling — retries, temp-dir policy, strict parsing, degradation —
# executes exactly as it would against a hostile machine.
FAULT_SITES = {
    "cc-missing": "no C compiler is found on PATH",
    "cc-crash": "the compiler subprocess dies on a signal "
                "(transient: retried with backoff)",
    "cc-timeout": "the compiler subprocess wedges past its timeout",
    "bin-nonzero": "the generated binary exits nonzero",
    "bin-timeout": "the generated binary wedges past its timeout",
    "bin-garbage": "the binary emits unparseable output "
                   "(duplicate/garbled protocol lines)",
    "malformed-stdout": "the binary exits 0 but omits required "
                        "checksum/outputs/seconds protocol lines",
    "opt-nonconverge": "the optimizer reports fixpoint non-convergence",
    "worker-kill": "a serve pool worker process dies mid-job (SIGKILL/"
                   "OOM-kill; detected via pipe EOF + exit status, the "
                   "worker is respawned and the job retried once)",
    "worker-hang": "a serve pool worker stops replying mid-job (caught "
                   "by the pool's job deadline, then killed/respawned)",
}


@dataclass
class FaultPlan:
    """Seeded per-site failure rates; decisions are deterministic."""

    rates: dict[str, float] = field(default_factory=dict)
    seed: int | str = 0
    # How often each site actually fired (diagnostics / test assertions).
    fired: dict[str, int] = field(default_factory=dict)
    _streams: dict[str, random.Random] = field(default_factory=dict,
                                               repr=False)

    @classmethod
    def parse(cls, spec: str, seed: int | str = 0) -> "FaultPlan":
        """Parse an ``--inject`` spec; unknown sites raise ``ValueError``."""
        rates: dict[str, float] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            site, sep, raw = item.partition(":")
            site = site.strip()
            if site not in FAULT_SITES:
                known = ", ".join(sorted(FAULT_SITES))
                raise ValueError(
                    f"unknown fault site {site!r}; known sites: {known}")
            try:
                rate = float(raw) if sep else 1.0
            except ValueError:
                raise ValueError(
                    f"bad rate for fault site {site!r}: {raw!r}") from None
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"rate for fault site {site!r} must be in [0, 1], "
                    f"got {raw}")
            rates[site] = rate
        return cls(rates=rates, seed=seed)

    def reseed(self, seed: int | str) -> None:
        """Reset the seed and forget any drawn streams/counts."""
        self.seed = seed
        self._streams.clear()
        self.fired.clear()

    def should_fire(self, site: str) -> bool:
        """One deterministic decision for ``site``; counts the hits.

        Each site draws from its own ``Random(f"{seed}:{site}")`` stream,
        so decisions at one seam never perturb another seam's sequence.
        """
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            hit = True
        else:
            stream = self._streams.get(site)
            if stream is None:
                stream = self._streams[site] = random.Random(
                    f"{self.seed}:{site}")
            hit = stream.random() < rate
        if hit:
            self.fired[site] = self.fired.get(site, 0) + 1
        return hit

    @property
    def active(self) -> bool:
        return any(rate > 0.0 for rate in self.rates.values())


class _NullPlan(FaultPlan):
    """The no-injection default: every query is False, zero allocation."""

    def should_fire(self, site: str) -> bool:  # noqa: ARG002
        return False


_NULL_PLAN = _NullPlan()
_installed: FaultPlan | None = None


def current_plan() -> FaultPlan:
    """The ambient fault plan (a never-firing null plan by default)."""
    return _installed if _installed is not None else _NULL_PLAN


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` as the ambient fault plan for a scope."""
    global _installed
    previous = _installed
    _installed = plan
    try:
        yield plan
    finally:
        _installed = previous
