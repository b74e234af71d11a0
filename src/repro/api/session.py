"""The Session: one front door to the whole pipeline, split into facets.

A :class:`Session` owns the pieces every consumer used to hand-wire —
compiler, flag space, machine space, simulator backend, dataset caches —
and exposes them through four lazily-constructed facets:

    >>> from repro.api import Session
    >>> session = Session(scale="tiny")
    >>> session.models.fit()                       # train on the dataset
    >>> machine = session.machines(1, seed=99)[0]
    >>> session.models.predict("sha", machine).speedup_over_o3
    >>> session.models.register(promote=True)      # version it for serving
    >>> session.eval.batch([...], jobs=4)          # parallel evaluation
    >>> session.protocol.run(only="headline")      # the paper protocol

``session.data`` manages the sharded experiment store, ``session.models``
the model lifecycle (fit/predict/rank/persistence/registry),
``session.eval`` evaluation and search, and ``session.protocol`` the
resumable paper protocol.  The session itself only resolves programs and
machines and compiles; every pipeline step lives on a facet.
"""

from __future__ import annotations

from pathlib import Path

from repro.api.backends import resolve_backend
from repro.api.facets import (
    SEARCH_ALGORITHMS,
    DataFacet,
    EvalFacet,
    ModelsFacet,
    ProtocolFacet,
    ProtocolRun,
)
from repro.compiler.binary import CompiledBinary
from repro.compiler.flags import DEFAULT_SPACE, FlagSetting, FlagSpace, o3_setting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.core.predictor import OptimisationPredictor
from repro.evalrun import FoldStore
from repro.experiments.config import Scale, preset
from repro.machine.params import MicroArch, MicroArchSpace
from repro.parallel import resolve_jobs
from repro.programs.mibench import mibench_program
from repro.store import ExperimentStore

__all__ = ["SEARCH_ALGORITHMS", "ProtocolRun", "Session"]

class Session:
    """Owns compiler, spaces, caches, backend, and the fitted model.

    Args:
        scale: experiment scale preset name or :class:`Scale` (default
            ``"quick"``); governs ``session.data`` and ``session.models``.
        backend: default simulator backend (name, class, or instance).
        jobs: default worker count for batches and dataset builds
            (1 = serial, negative = all cores).
        executor: default batch strategy — ``auto``, ``serial``,
            ``thread``, or ``process``.
        cache_dir: dataset cache root, overriding ``$REPRO_CACHE_DIR``.
        use_disk_cache: disable to keep datasets in memory only.
        compiler: share a memoising compiler across sessions if desired.
    """

    def __init__(
        self,
        scale: str | Scale | None = None,
        *,
        backend: object = "analytic",
        jobs: int | None = 1,
        executor: str = "auto",
        cache_dir: str | Path | None = None,
        use_disk_cache: bool = True,
        compiler: Compiler | None = None,
        flag_space: FlagSpace = DEFAULT_SPACE,
        machine_space: MicroArchSpace | None = None,
    ):
        self.scale = self._resolve_scale(scale if scale is not None else "quick")
        self.backend = resolve_backend(backend)
        self.jobs = resolve_jobs(jobs)
        self.executor = executor
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.use_disk_cache = use_disk_cache
        self.compiler = compiler if compiler is not None else Compiler()
        self.flag_space = flag_space
        self.machine_space = (
            machine_space
            if machine_space is not None
            else MicroArchSpace(extended=self.scale.extended)
        )
        self.model: OptimisationPredictor | None = None
        self.model_fingerprint: str | None = None
        #: Cache-less sessions keep one in-memory store per scale so
        #: data.build/data.status/data.dataset all see the same shards.
        self._memory_stores: dict[str, ExperimentStore] = {}
        #: Likewise for protocol fold stores, keyed by protocol fingerprint.
        self._memory_fold_stores: dict[str, FoldStore] = {}
        #: Facets, constructed on first access.
        self._facets: dict[str, object] = {}

    # --------------------------------------------------------------- facets
    def _facet(self, name: str, factory):
        facet = self._facets.get(name)
        if facet is None:
            facet = factory(self)
            self._facets[name] = facet
        return facet

    @property
    def data(self) -> DataFacet:
        """Dataset lifecycle: the sharded, resumable experiment store."""
        return self._facet("data", DataFacet)

    @property
    def models(self) -> ModelsFacet:
        """Model lifecycle: fit/predict/rank, persistence, the registry."""
        return self._facet("models", ModelsFacet)

    @property
    def eval(self) -> EvalFacet:
        """Evaluation: one triple, parallel batches, search baselines."""
        return self._facet("eval", EvalFacet)

    @property
    def protocol(self) -> ProtocolFacet:
        """The resumable paper protocol: fold store, pipeline, report."""
        return self._facet("protocol", ProtocolFacet)

    # ------------------------------------------------------------- resolvers
    @staticmethod
    def _resolve_scale(scale: str | Scale) -> Scale:
        return preset(scale) if isinstance(scale, str) else scale

    def program(self, program: Program | str) -> Program:
        """Resolve a MiBench name (or pass a Program through)."""
        if isinstance(program, str):
            try:
                return mibench_program(program)
            except KeyError:
                from repro.programs.mibench import mibench_names

                raise ValueError(
                    f"unknown program {program!r}; "
                    f"choose from {', '.join(mibench_names())}"
                ) from None
        return program

    def machines(
        self, count: int | None = None, seed: int | None = None
    ) -> list[MicroArch]:
        """Sample microarchitectures (defaults come from the scale)."""
        return self.machine_space.sample(
            count if count is not None else self.scale.n_machines,
            seed=seed if seed is not None else self.scale.machine_seed,
        )

    def compile(
        self, program: Program | str, setting: FlagSetting | None = None
    ) -> CompiledBinary:
        """Compile through the session's memoising compiler (default -O3)."""
        return self.compiler.compile(
            self.program(program),
            setting if setting is not None else o3_setting(),
        )
