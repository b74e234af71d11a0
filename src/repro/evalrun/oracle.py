"""The store-backed runtime oracle.

Cross-validation needs the runtime of (program, predicted setting,
machine) triples.  The training matrix assembled from the experiment
store already holds the runtime of *every* grid setting on every
machine, so the oracle answers those lookups without touching the
compiler or simulator at all; only settings the model synthesised
outside the sampled grid fall back to compile-and-simulate — and that
fallback is memoised compile-once/simulate-once, shared across every
fold that asks.

The oracle also guards fold evaluation against silently swapping in a
different binary: every compiled binary is checked to carry exactly the
requested program and canonical setting before its simulation is
trusted.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.core.training import TrainingSet
from repro.machine.params import MicroArch
from repro.sim.analytic import simulate_analytic
from repro.sim.vector import BinarySignature, simulate_many


class OracleError(RuntimeError):
    """Fold evaluation was handed the wrong binary or an unknown pair."""


class RuntimeOracle:
    """Runtimes for (program, setting, machine), precomputed-first.

    Args:
        training: the assembled experiment-store matrix; its
            ``runtimes[p, s, m]`` grid answers every in-grid lookup.
        programs: :class:`Program` objects for the training programs
            (needed only for the out-of-grid compile fallback).
        compiler: memoising compiler for the fallback; a private one is
            created when omitted.

    Thread-safe: serial and thread executors may share one instance;
    concurrent duplicate work is benign (identical deterministic values)
    and the counters are lock-guarded.
    """

    def __init__(
        self,
        training: TrainingSet,
        programs: Sequence[Program] | Mapping[str, Program],
        compiler: Compiler | None = None,
    ):
        self.training = training
        if isinstance(programs, Mapping):
            self._programs = dict(programs)
        else:
            self._programs = {program.name: program for program in programs}
        self.compiler = compiler if compiler is not None else Compiler()
        self._program_index = {
            name: index for index, name in enumerate(training.program_names)
        }
        self._machine_index = {
            machine: index for index, machine in enumerate(training.machines)
        }
        self._setting_index = {
            setting.canonical(): index
            for index, setting in enumerate(training.settings)
        }
        #: (program, canonical setting, machine index) -> seconds, for
        #: out-of-grid settings only (in-grid lookups read the matrix).
        self._fallback_runtimes: dict[tuple[str, FlagSetting, int], float] = {}
        self._lock = threading.Lock()
        self.simulation_calls = 0
        self.store_hits = 0

    # ------------------------------------------------------------ indexing
    def program_index(self, name: str) -> int:
        try:
            return self._program_index[name]
        except KeyError:
            raise OracleError(f"unknown program {name!r}") from None

    def machine_index(self, machine: MicroArch) -> int:
        try:
            return self._machine_index[machine]
        except KeyError:
            raise OracleError(f"machine not in the training grid: {machine}") from None

    # ------------------------------------------------------------- lookups
    def o3_runtime(self, program: str, machine: MicroArch) -> float:
        p = self.program_index(program)
        m = self.machine_index(machine)
        return float(self.training.o3_runtimes[p, m])

    def best_runtime(self, program: str, machine: MicroArch) -> float:
        p = self.program_index(program)
        m = self.machine_index(machine)
        return self.training.best_runtime(p, m)

    def runtime(
        self, program: str, setting: FlagSetting, machine: MicroArch
    ) -> float:
        """Seconds for one triple: grid lookup first, simulate only if new."""
        p = self.program_index(program)
        m = self.machine_index(machine)
        canonical = setting.canonical()
        s = self._setting_index.get(canonical)
        if s is not None:
            with self._lock:
                self.store_hits += 1
            return float(self.training.runtimes[p, s, m])

        key = (program, canonical, m)
        cached = self._fallback_runtimes.get(key)
        if cached is not None:
            return cached
        binary = self._compile_checked(program, canonical)
        seconds = simulate_analytic(binary, machine).seconds
        with self._lock:
            self.simulation_calls += 1
            self._fallback_runtimes[key] = seconds
        return seconds

    def runtime_many(
        self,
        program: str,
        settings: Sequence[FlagSetting],
        machines: Sequence[MicroArch],
    ) -> list[float]:
        """Seconds for ``(program, settings[i], machines[i])`` triples.

        The batched form of :meth:`runtime`: in-grid settings still read
        straight from the training matrix, but all out-of-grid fallback
        pairs of one setting are compiled once and priced in a single
        :func:`~repro.sim.vector.simulate_many` pass instead of one
        scalar simulation per machine.  Results, memoisation keys, and
        the ``store_hits``/``simulation_calls`` counters are exactly
        what the equivalent sequence of :meth:`runtime` calls — its
        scalar reference — produces.
        """
        if len(settings) != len(machines):
            raise ValueError("settings and machines must pair up")
        p = self.program_index(program)
        machine_indices = [self.machine_index(machine) for machine in machines]
        canonicals = [setting.canonical() for setting in settings]

        answers: list[float | None] = [None] * len(settings)
        #: canonical -> [(position, machine index)] still needing a fallback.
        pending: dict[FlagSetting, list[tuple[int, int]]] = {}
        store_hits = 0
        for position, (canonical, m) in enumerate(zip(canonicals, machine_indices)):
            s = self._setting_index.get(canonical)
            if s is not None:
                store_hits += 1
                answers[position] = float(self.training.runtimes[p, s, m])
                continue
            cached = self._fallback_runtimes.get((program, canonical, m))
            if cached is not None:
                answers[position] = cached
            else:
                pending.setdefault(canonical, []).append((position, m))
        if store_hits:
            with self._lock:
                self.store_hits += store_hits

        for canonical, places in pending.items():
            binary = self._compile_checked(program, canonical)
            # A setting may pair with the same machine twice; simulate
            # each distinct machine once, exactly like memoised
            # per-triple calls would.
            distinct = sorted({m for _, m in places})
            results = simulate_many(
                [BinarySignature.from_binary(binary)],
                [self.training.machines[m] for m in distinct],
            )
            seconds_by_machine = {
                m: float(results.seconds[0, i]) for i, m in enumerate(distinct)
            }
            with self._lock:
                self.simulation_calls += len(distinct)
                for m, seconds in seconds_by_machine.items():
                    self._fallback_runtimes[(program, canonical, m)] = seconds
            for position, m in places:
                answers[position] = seconds_by_machine[m]
        return answers

    # ------------------------------------------------------------ fallback
    def _compile_checked(self, program: str, canonical: FlagSetting):
        """Compile through the memoising compiler, verifying identity.

        The returned binary must be *the* binary of (program, setting):
        a cache or executor bug that swapped in another program's binary,
        or one compiled under different flags, would silently corrupt
        every downstream paper number, so it is checked here instead of
        trusted.
        """
        source = self._programs.get(program)
        if source is None:
            raise OracleError(f"no Program object for {program!r}")
        binary = self.compiler.compile(source, canonical)
        if binary.program_name != program:
            raise OracleError(
                f"binary swap: asked for {program!r}, "
                f"got {binary.program_name!r}"
            )
        recorded = binary.setting.canonical() if binary.setting is not None else None
        if recorded != canonical:
            raise OracleError(
                f"binary swap: {program!r} binary was compiled under a "
                "different flag setting than requested"
            )
        return binary
