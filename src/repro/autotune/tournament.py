"""The tournament: every strategy, one grid, one leaderboard.

Runs all registered strategies on a common (program, machine, seed)
matrix and reports the paper's §5.3 economics: how many evaluations —
and, more honestly, how many *fresh simulations* — each strategy needs
to match the best setting any of them found.  The headline claim this
reproduces: model-seeded search matches best-known in a fraction of the
simulations any pure-iterative baseline consumes.

Accounting rules, applied uniformly:

* *best-known* per pair is the best runtime any run of any strategy
  found; a run *matches* when it reaches within ``tolerance`` of it.
* unmatched runs are charged the full budget (evaluations and
  simulations), not dropped — dropping them would reward giving up.
* model-guided strategies are charged ``profile_cost`` extra
  simulations: the one -O3 profiling run their distribution cost
  (the paper's deployment price).
* deterministic strategies run once per pair; their single run stands
  for every seed.

Every run gets a fresh evaluator (no memo leaks between competitors)
over a shared compiler (compilation is not the unit being priced).
The rendered markdown and JSON are bit-deterministic for a fixed grid
and seed list — the regression suite diffs two runs byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.autotune.core import SearchStrategy, run_traced
from repro.autotune.guided import GUIDED_STRATEGIES
from repro.autotune.strategies import BASELINE_STRATEGIES
from repro.compiler.flags import DEFAULT_SPACE, FlagSpace
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.core.distribution import IIDDistribution
from repro.machine.params import MicroArch
from repro.autotune.evaluator import Evaluator

#: Default competitor line-up: the four re-homed baselines plus the two
#: model-guided strategies, in leaderboard-stable order.
ALL_STRATEGIES: dict[str, type[SearchStrategy]] = {
    **BASELINE_STRATEGIES,
    **GUIDED_STRATEGIES,
}


@dataclass(frozen=True)
class TournamentRun:
    """One (strategy, program, machine, seed) search run's scoreboard row."""

    strategy: str
    program: str
    machine: str
    seed: int
    best_runtime: float
    best_speedup: float
    evaluations: int
    simulations: int
    matched: bool
    evaluations_to_match: int
    simulations_to_match: int

    def payload(self) -> dict:
        return {
            "strategy": self.strategy,
            "program": self.program,
            "machine": self.machine,
            "seed": self.seed,
            "best_runtime": self.best_runtime,
            "best_speedup": self.best_speedup,
            "evaluations": self.evaluations,
            "simulations": self.simulations,
            "matched": self.matched,
            "evaluations_to_match": self.evaluations_to_match,
            "simulations_to_match": self.simulations_to_match,
        }


@dataclass(frozen=True)
class StrategyStanding:
    """One leaderboard row: a strategy's means over all its runs."""

    strategy: str
    deterministic: bool
    runs: int
    matched: int
    mean_evaluations_to_match: float
    mean_simulations_to_match: float
    mean_best_speedup: float
    simulations_total: int

    def payload(self) -> dict:
        return {
            "strategy": self.strategy,
            "deterministic": self.deterministic,
            "runs": self.runs,
            "matched": self.matched,
            "mean_evaluations_to_match": self.mean_evaluations_to_match,
            "mean_simulations_to_match": self.mean_simulations_to_match,
            "mean_best_speedup": self.mean_best_speedup,
            "simulations_total": self.simulations_total,
        }


@dataclass
class TournamentResult:
    """The full tournament outcome: per-run rows, standings, best-known."""

    budget: int
    tolerance: float
    seeds: tuple[int, ...]
    programs: tuple[str, ...]
    machines: tuple[str, ...]
    best_known: dict[tuple[str, str], float]
    runs: list[TournamentRun]
    standings: list[StrategyStanding]

    def standing(self, strategy: str) -> StrategyStanding:
        for entry in self.standings:
            if entry.strategy == strategy:
                return entry
        raise KeyError(f"no standing for strategy {strategy!r}")

    # ------------------------------------------------------------ rendering
    def render(self) -> str:
        """The markdown leaderboard (deterministic for a fixed grid)."""
        lines = [
            "# Search tournament",
            "",
            f"grid: {len(self.programs)} programs x {len(self.machines)} "
            f"machines x {len(self.seeds)} seeds | budget {self.budget} "
            f"evaluations | match tolerance "
            f"{self.tolerance * 100.0:.1f}% of best-known",
            "",
            "| rank | strategy | matched | mean sims-to-match | "
            "mean evals-to-match | mean best speedup | sims consumed |",
            "|-----:|:---------|--------:|-------------------:|"
            "--------------------:|------------------:|--------------:|",
        ]
        for rank, standing in enumerate(self.standings, start=1):
            name = standing.strategy
            if standing.deterministic:
                name += " *"
            lines.append(
                f"| {rank} | {name} | {standing.matched}/{standing.runs} "
                f"| {standing.mean_simulations_to_match:.1f} "
                f"| {standing.mean_evaluations_to_match:.1f} "
                f"| {standing.mean_best_speedup:.3f} "
                f"| {standing.simulations_total} |"
            )
        lines += [
            "",
            "`*` deterministic: one run stands for every seed.  "
            "sims-to-match includes the model-guided strategies' profile "
            "run; unmatched runs are charged the full budget.",
            "",
            "## Best-known runtime per pair",
            "",
            "| program | machine | best-known (s) |",
            "|:--------|:--------|---------------:|",
        ]
        for (program, machine), runtime in sorted(self.best_known.items()):
            lines.append(f"| {program} | {machine} | {runtime:.6f} |")
        return "\n".join(lines) + "\n"

    def payload(self) -> dict:
        return {
            "budget": self.budget,
            "tolerance": self.tolerance,
            "seeds": list(self.seeds),
            "programs": list(self.programs),
            "machines": list(self.machines),
            "best_known": {
                f"{program}/{machine}": runtime
                for (program, machine), runtime in sorted(self.best_known.items())
            },
            "standings": [standing.payload() for standing in self.standings],
            "runs": [run.payload() for run in self.runs],
        }

    def json_text(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True) + "\n"


def check_model_beats_random(
    result: TournamentResult,
    model: str = "model-genetic",
    baseline: str = "random",
) -> tuple[bool, str]:
    """The smoke gate: model-seeded search must out-economise random.

    Passes iff the model strategy's mean simulations-to-match is
    *strictly* lower than the baseline's and its mean
    evaluations-to-match is no higher.  Returns ``(ok, message)``.
    """
    guided = result.standing(model)
    random_ = result.standing(baseline)
    ok = (
        guided.mean_simulations_to_match < random_.mean_simulations_to_match
        and guided.mean_evaluations_to_match
        <= random_.mean_evaluations_to_match
    )
    message = (
        f"{model}: {guided.mean_simulations_to_match:.1f} sims-to-match / "
        f"{guided.mean_evaluations_to_match:.1f} evals-to-match vs "
        f"{baseline}: {random_.mean_simulations_to_match:.1f} / "
        f"{random_.mean_evaluations_to_match:.1f} "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    return ok, message


def run_tournament(
    programs: Sequence[Program],
    machines: Sequence[MicroArch],
    *,
    budget: int,
    seeds: Sequence[int] = (0,),
    strategies: Sequence[str] | None = None,
    make_evaluator: Callable[[Program, MicroArch], Evaluator] | None = None,
    distribution_for: (
        Callable[[Program, MicroArch], IIDDistribution] | None
    ) = None,
    space: FlagSpace = DEFAULT_SPACE,
    tolerance: float = 0.01,
    profile_cost: int = 1,
    progress: Callable[[str], None] | None = None,
) -> TournamentResult:
    """Run the strategy matrix and assemble the leaderboard.

    Args:
        programs/machines/seeds/budget: the common grid every strategy
            competes on.
        strategies: competitor names (default: every registered
            strategy, minus the model-guided ones when no
            ``distribution_for`` is supplied).
        make_evaluator: evaluator factory, one fresh evaluator per run
            (default: analytic-tier evaluators over one shared compiler).
        distribution_for: the pair's predictive distribution — what the
            model-guided strategies search with.  Required if any
            model-guided strategy competes.
        tolerance: relative slack on best-known that still counts as a
            match (default 1%).
        profile_cost: simulations charged to model-guided strategies for
            the profiling run behind their distribution.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1: {budget}")
    if not programs or not machines or not seeds:
        raise ValueError("tournament needs >= 1 program, machine, and seed")
    if strategies is None:
        strategies = [
            name
            for name in ALL_STRATEGIES
            if distribution_for is not None or name not in GUIDED_STRATEGIES
        ]
    unknown = [name for name in strategies if name not in ALL_STRATEGIES]
    if unknown:
        raise ValueError(
            f"unknown strategies: {unknown}; "
            f"choose from {sorted(ALL_STRATEGIES)}"
        )
    guided_requested = [n for n in strategies if n in GUIDED_STRATEGIES]
    if guided_requested and distribution_for is None:
        raise ValueError(
            f"strategies {guided_requested} are model-guided and need a "
            "distribution_for callable"
        )
    if make_evaluator is None:
        shared_compiler = Compiler()

        def make_evaluator(program: Program, machine: MicroArch) -> Evaluator:
            return Evaluator(
                program=program, machine=machine, compiler=shared_compiler
            )

    machine_labels = [f"m{index}" for index in range(len(machines))]
    seeds = tuple(seeds)

    # ---- run the matrix, keeping raw traces until best-known is known
    raw: list[tuple[str, str, str, int, bool, object]] = []
    for program in programs:
        for machine, label in zip(machines, machine_labels):
            o3_runtime = make_evaluator(program, machine).o3_runtime()
            distribution = None
            if guided_requested:
                distribution = distribution_for(program, machine)
            for name in strategies:
                factory = ALL_STRATEGIES[name]
                guided = name in GUIDED_STRATEGIES
                run_seeds = seeds[:1] if factory.deterministic else seeds
                for seed in run_seeds:
                    if progress is not None:
                        progress(
                            f"{name} on {program.name}/{label} seed {seed}"
                        )
                    trace = run_traced(
                        factory(),
                        make_evaluator(program, machine),
                        budget,
                        seed=seed,
                        space=space,
                        distribution=distribution if guided else None,
                        o3_runtime=o3_runtime,
                    )
                    raw.append(
                        (name, program.name, label, seed, guided, trace)
                    )

    # ---- best-known per pair: the floor over every competitor's runs
    best_known: dict[tuple[str, str], float] = {}
    for _, program_name, label, _, _, trace in raw:
        key = (program_name, label)
        best = trace.best_runtime
        if key not in best_known or best < best_known[key]:
            best_known[key] = best

    # ---- fold traces into scoreboard rows
    runs: list[TournamentRun] = []
    for name, program_name, label, seed, guided, trace in raw:
        target = best_known[(program_name, label)] * (1.0 + tolerance)
        profile = profile_cost if guided else 0
        evaluations_to_match = trace.evaluations_to_reach(target)
        matched = evaluations_to_match is not None
        simulations_to_match = (
            trace.simulations_to_reach(target) if matched else None
        )
        runs.append(
            TournamentRun(
                strategy=name,
                program=program_name,
                machine=label,
                seed=seed,
                best_runtime=trace.best_runtime,
                best_speedup=(
                    trace.o3_runtime / trace.best_runtime
                    if trace.o3_runtime
                    else 1.0
                ),
                evaluations=trace.evaluations,
                simulations=trace.simulations + profile,
                matched=matched,
                evaluations_to_match=(
                    evaluations_to_match if matched else budget
                ),
                simulations_to_match=(
                    simulations_to_match + profile if matched else budget
                ),
            )
        )

    # ---- standings: per-strategy means, ranked by simulation economy
    standings: list[StrategyStanding] = []
    for name in strategies:
        mine = [run for run in runs if run.strategy == name]
        count = len(mine)
        standings.append(
            StrategyStanding(
                strategy=name,
                deterministic=ALL_STRATEGIES[name].deterministic,
                runs=count,
                matched=sum(run.matched for run in mine),
                mean_evaluations_to_match=(
                    sum(run.evaluations_to_match for run in mine) / count
                ),
                mean_simulations_to_match=(
                    sum(run.simulations_to_match for run in mine) / count
                ),
                mean_best_speedup=(
                    sum(run.best_speedup for run in mine) / count
                ),
                simulations_total=sum(run.simulations for run in mine),
            )
        )
    standings.sort(
        key=lambda standing: (
            standing.mean_simulations_to_match,
            standing.mean_evaluations_to_match,
            standing.strategy,
        )
    )

    return TournamentResult(
        budget=budget,
        tolerance=tolerance,
        seeds=seeds,
        programs=tuple(program.name for program in programs),
        machines=tuple(machine_labels),
        best_known=best_known,
        runs=runs,
        standings=standings,
    )
