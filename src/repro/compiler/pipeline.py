"""The pass manager: a flag setting drives an ordered pass schedule.

The order follows gcc 4.2's RTL pipeline closely enough that the documented
pass interactions hold: inlining before the scalar cleanups, loop passes
before unrolling, the post-loop CSE rerun after unrolling, scheduling before
register allocation (the -fschedule-insns/spill interaction of the paper's
§5.4), post-reload GCSE after allocation, and layout passes last.
"""

from __future__ import annotations

from repro.compiler.binary import CompiledBinary, finalize
from repro.compiler.flags import DEFAULT_SPACE, FlagSetting, FlagSpace
from repro.compiler.ir import Program
from repro.compiler.passes.align import AlignPass
from repro.compiler.passes.base import Pass, PassStats
from repro.compiler.passes.cse import CsePass, RerunCsePass
from repro.compiler.passes.gcse import GcseAfterReloadPass, GcsePass
from repro.compiler.passes.inline import InlineFunctionsPass
from repro.compiler.passes.jumps import CrossJumpPass, ThreadJumpsPass
from repro.compiler.passes.loopopt import (
    LoopInvariantMotionPass,
    RerunLoopOptPass,
    StrengthReducePass,
    UnswitchLoopsPass,
)
from repro.compiler.passes.misc import PeepholePass, SiblingCallPass
from repro.compiler.passes.reorder import ReorderBlocksPass
from repro.compiler.passes.schedule import ScheduleInsnsPass
from repro.compiler.passes.tree import TreePrePass, TreeVrpPass
from repro.compiler.passes.unroll import UnrollLoopsPass
from repro.compiler.regalloc import RegisterAllocationPass


def default_pass_order(memoize: bool = True) -> list[Pass]:
    """The gcc-4.2-like pass schedule used for every compilation.

    ``memoize`` gives the scheduler its block memo (see ``Compiler``).
    """
    return [
        TreeVrpPass(),
        TreePrePass(),
        InlineFunctionsPass(),
        SiblingCallPass(),
        ThreadJumpsPass(),
        CsePass(),
        GcsePass(),
        LoopInvariantMotionPass(),
        RerunLoopOptPass(),
        UnswitchLoopsPass(),
        StrengthReducePass(),
        UnrollLoopsPass(),
        RerunCsePass(),
        ScheduleInsnsPass(memoize=memoize),
        RegisterAllocationPass(),
        GcseAfterReloadPass(),
        PeepholePass(),
        CrossJumpPass(),
        ReorderBlocksPass(),
        AlignPass(),
    ]


class Compiler:
    """The optimising compiler: (program, flag setting) → compiled binary.

    Compilations are memoised on ``(program name, canonical setting)``; two
    settings that differ only in dimensions masked by a disabled parent flag
    share one compilation, exactly as they would share one gcc invocation's
    behaviour.

    The same ``cache`` switch gives the scheduling pass a memo of the blocks
    it has list scheduled, keyed by the block's instructions (see
    ``ScheduleInsnsPass``).  Settings that differ in any flag still present
    the scheduler with mostly the same blocks, so every pipeline run reuses
    it; compiled binaries are identical either way.  ``cache=False`` keeps
    no growing state at all, and ``clear_cache`` empties both memos.
    """

    def __init__(self, space: FlagSpace = DEFAULT_SPACE, cache: bool = True):
        self.space = space
        self._cache_enabled = cache
        self._cache: dict[tuple[str, FlagSetting], CompiledBinary] = {}
        self._passes = default_pass_order(memoize=cache)
        self._scheduler = next(
            optimisation
            for optimisation in self._passes
            if isinstance(optimisation, ScheduleInsnsPass)
        )

    def compile(self, program: Program, setting: FlagSetting) -> CompiledBinary:
        """Run the pass pipeline over a fresh copy of ``program``."""
        canonical = setting.canonical()
        key = (program.name, canonical)
        if self._cache_enabled:
            # Single atomic read (not check-then-index) so a concurrent
            # clear_cache() can only cause a recompile, never a KeyError.
            cached = self._cache.get(key)
            if cached is not None:
                return cached

        working = program.clone()
        stats = PassStats()
        for optimisation in self._passes:
            optimisation.apply(working, canonical, stats)
        working.validate()
        binary = finalize(working, setting, stats)
        if self._cache_enabled:
            self._cache[key] = binary
        return binary

    @property
    def cache_enabled(self) -> bool:
        return self._cache_enabled

    def cache_info(self) -> dict[str, int]:
        """Memoised binaries (``entries``) and scheduled blocks (``blocks``)."""
        return {"entries": len(self._cache), "blocks": len(self._scheduler.memo or ())}

    def clear_cache(self) -> None:
        self._cache.clear()
        if self._scheduler.memo is not None:
            self._scheduler.memo.clear()
