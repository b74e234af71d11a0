"""Evaluation oracle shared by every search strategy.

One *evaluation* is one compile-and-run of a flag setting on a fixed
program/machine pair — the costly unit the paper counts (its "Best" uses
1000 of them; its model uses one profile run).  The evaluator memoises, so
revisiting a setting is free, matching how an iterative-compilation driver
would cache results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compiler.binary import CompiledBinary
from repro.compiler.flags import FlagSetting, o3_setting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.machine.params import MicroArch
from repro.sim.analytic import SimulationResult, simulate_analytic
from repro.sim.vector import simulate_grid


@dataclass
class Evaluator:
    """Runtime oracle for one (program, machine) pair.

    ``simulate`` makes the timing tier pluggable: it defaults to the fast
    analytic model, and :class:`repro.api.Session` injects a simulator
    backend's ``run`` here so searches can target the trace tier too.
    ``batch_simulate`` is the matching explicit batch entry point (a
    backend's ``run_many``); it is never inferred from ``simulate``, so
    injected wrappers and mocks are always honoured.
    """

    program: Program
    machine: MicroArch
    compiler: Compiler = field(default_factory=Compiler)
    simulate: Callable[[CompiledBinary, MicroArch], SimulationResult] | None = None
    batch_simulate: Callable | None = None

    def __post_init__(self) -> None:
        self._cache: dict[FlagSetting, float] = {}
        self.evaluations = 0

    def evaluate(self, setting: FlagSetting) -> float:
        """Runtime in seconds of the program compiled with ``setting``."""
        canonical = setting.canonical()
        if canonical in self._cache:
            return self._cache[canonical]
        binary = self.compiler.compile(self.program, canonical)
        runner = self.simulate if self.simulate is not None else simulate_analytic
        runtime = runner(binary, self.machine).seconds
        self._cache[canonical] = runtime
        self.evaluations += 1
        return runtime

    def evaluate_many(self, settings: Sequence[FlagSetting]) -> list[float]:
        """Runtimes of many settings, batched through the vector kernel.

        Compiles each uncached setting (first-seen order) and prices all
        the binaries against this evaluator's machine in one
        :func:`~repro.sim.vector.simulate_many` pass — bit-identical to
        sequential :meth:`evaluate` calls (its scalar reference),
        including the memo and the ``evaluations`` count.  Falls back to
        the sequential path when a custom scalar ``simulate`` is injected
        without a matching ``batch_simulate``.
        """
        canonicals = [setting.canonical() for setting in settings]
        run_many = self._run_many()
        if run_many is None:
            return [self.evaluate(canonical) for canonical in canonicals]
        fresh: list[FlagSetting] = []
        seen: set[FlagSetting] = set()
        for canonical in canonicals:
            if canonical not in self._cache and canonical not in seen:
                seen.add(canonical)
                fresh.append(canonical)
        if fresh:
            binaries = [
                self.compiler.compile(self.program, canonical)
                for canonical in fresh
            ]
            results = run_many(binaries, [self.machine])
            for s, canonical in enumerate(fresh):
                self._cache[canonical] = float(results.seconds[s, 0])
                self.evaluations += 1
        return [self._cache[canonical] for canonical in canonicals]

    def is_cached(self, setting: FlagSetting) -> bool:
        """Whether evaluating ``setting`` would be a memo hit.

        The autotune scorer asks this *before* pricing a batch to count
        fresh simulations (the paper's costly unit) separately from
        budgeted evaluations; canonicalisation is applied, so gated
        aliases of a cached setting report cached too.
        """
        return setting.canonical() in self._cache

    def _run_many(self):
        """The batch simulation entry point, if this tier has one."""
        if self.batch_simulate is not None:
            return self.batch_simulate
        if self.simulate is None:
            return simulate_grid
        return None

    def o3_runtime(self) -> float:
        return self.evaluate(o3_setting())

    def speedup(self, setting: FlagSetting) -> float:
        return self.o3_runtime() / self.evaluate(setting)


def evaluations_to_reach(
    trajectory: Sequence[float], target_runtime: float
) -> int | None:
    """First evaluation index (1-based) reaching ``target_runtime``.

    Boundary semantics, pinned (consumers cap or gate on this):

    * reaching means ``runtime <= target_runtime`` — equality counts;
    * a search that first reaches the target on its *final* evaluation
      returns ``len(trajectory)``, never ``None``;
    * ``None`` means exactly one thing: no recorded evaluation reached
      the target.  It is **not** a sentinel for "reached at the budget
      cap" — callers that charge unreached runs the full budget must
      test for ``None`` explicitly rather than comparing against
      ``len(trajectory)``, because a legitimate final-evaluation match
      also equals the budget.
    """
    for index, runtime in enumerate(trajectory, start=1):
        if runtime <= target_runtime:
            return index
    return None


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best_setting: FlagSetting
    best_runtime: float
    evaluations: int
    #: best runtime seen after each evaluation (the convergence curve used
    #: by the §5.3 iterations-to-match analysis).
    trajectory: list[float] = field(default_factory=list)

    def evaluations_to_reach(self, target_runtime: float) -> int | None:
        """First evaluation index (1-based) reaching ``target_runtime``."""
        return evaluations_to_reach(self.trajectory, target_runtime)
