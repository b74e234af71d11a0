"""Compile golden: every compiled binary pinned field for field.

``tests/golden/compile_golden.json`` holds a digest of
``repr(CompiledBinary)`` for each (program, setting) pair below.  The
``repr`` covers every field of the binary — the pass stats, the loop
summaries with their access streams, the stall profile — so any change to
any compiler pass, to ``finalize`` or to the program generator shows up
here, even when the simulated runtimes happen to agree.

The grid is all 35 MiBench programs plus three generated programs, each
compiled under -O3, -O0, eight sampled settings and the Hamming-1
neighbours of -O3 on six flags that drive the scheduler, the unroller,
store motion and inlining.  Compilation runs with the memo cache off; a
second class compiles the grid again through one memoising compiler whose
scheduler has already seen every block, and must give the same digests.

The second class guards the IR's sharing: working copies share their
instruction objects with the source program, so a pass that mutated an
instruction in place would silently corrupt the cached MiBench IR.

If a change to compiled output is *intentional*, regenerate the fixture
and commit the diff::

    PYTHONPATH=src python tests/test_compile_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest

from repro.compiler import pipeline
from repro.compiler.flags import DEFAULT_SPACE, o0_setting, o3_setting
from repro.compiler.pipeline import Compiler
from repro.programs.generator import build_program
from repro.programs.mibench import mibench_names, mibench_program, mibench_spec

GOLDEN_PATH = Path(__file__).parent / "golden" / "compile_golden.json"

#: Flags whose Hamming-1 flips off -O3 are pinned: the scheduler and its
#: sub-flags, the unroller, store motion and inlining.
NEIGHBOUR_FLAGS = (
    "fschedule_insns",
    "fno_sched_spec",
    "fno_sched_interblock",
    "funroll_loops",
    "fgcse_sm",
    "finline_functions",
)

#: Seeds of the generated programs (``random_spec`` in the differential
#: fuzz suite), chosen to cover callees, nests and mergeable tails.
GENERATED_SEEDS = (3, 11, 42)


def golden_settings():
    """``(label, setting)`` pairs compiled for every program."""
    o3 = o3_setting()
    pairs = [("O3", o3), ("O0", o0_setting())]
    pairs += [
        (f"sample{index}", setting)
        for index, setting in enumerate(DEFAULT_SPACE.sample_many(8, seed=7))
    ]
    pairs += [
        (f"O3^{name}", o3.with_values(**{name: not o3[name]}))
        for name in NEIGHBOUR_FLAGS
    ]
    return pairs


def golden_programs():
    """``(name, program)`` pairs: all MiBench programs plus generated ones."""
    # Imported here so the fixture writer does not depend on pytest's
    # rootdir being on ``sys.path``.
    from tests.test_differential_semantics import random_spec

    programs = [(name, mibench_program(name)) for name in mibench_names()]
    for seed in GENERATED_SEEDS:
        spec = random_spec(seed)
        programs.append((spec.name, build_program(spec)))
    return programs


def binary_digest(binary) -> str:
    return hashlib.sha256(repr(binary).encode()).hexdigest()[:16]


def compute_digests() -> dict[str, dict[str, str]]:
    compiler = Compiler(cache=False)
    settings = golden_settings()
    return {
        name: {
            label: binary_digest(compiler.compile(program, setting))
            for label, setting in settings
        }
        for name, program in golden_programs()
    }


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestCompileGolden:
    def test_fixture_covers_the_grid(self, golden):
        programs = [name for name, _ in golden_programs()]
        labels = [label for label, _ in golden_settings()]
        assert len(programs) == 38 and len(labels) == 16
        assert list(golden) == programs
        for name in programs:
            assert list(golden[name]) == labels

    def test_every_binary_matches_the_golden(self, digests, golden):
        mismatched = [
            f"{name}/{label}"
            for name, row in golden.items()
            for label, digest in row.items()
            if digests[name][label] != digest
        ]
        assert not mismatched, f"{len(mismatched)} drifted: {mismatched[:10]}"


class TestWarmBlockMemo:
    def test_memo_hits_match_the_golden(self, golden):
        compiler = Compiler()
        settings = golden_settings()
        programs = golden_programs()
        working_programs = []
        finalize = pipeline.finalize

        def keep_working(program, setting, stats=None):
            working_programs.append(program)
            return finalize(program, setting, stats)

        def drifted():
            return [
                f"{name}/{label}"
                for name, program in programs
                for label, setting in settings
                if binary_digest(compiler.compile(program, setting))
                != golden[name][label]
            ]

        assert not drifted()
        blocks = compiler.cache_info()["blocks"]
        assert blocks > 0
        # The compiled working programs' blocks hold lists handed out by
        # the memo; scrambling them must not reach any later compile.
        with mock.patch.object(pipeline, "finalize", keep_working):
            compiler._cache.clear()  # keep the block memo, drop the binaries
            assert not drifted()
        assert compiler.cache_info()["blocks"] == blocks  # all hits
        for working in working_programs:
            for function in working.functions.values():
                for block in function.blocks.values():
                    block.instructions.reverse()
                    block.instructions.extend(block.instructions)
        compiler._cache.clear()
        assert not drifted()
        compiler.clear_cache()
        assert compiler.cache_info() == {"entries": 0, "blocks": 0}


class TestThreadsShareOneCompiler:
    def test_concurrent_compiles_and_clears_match_the_golden(self, golden):
        """Thread executors share one compiler, and the runner clears it
        mid-flight when a build moves to the next program."""
        compiler = Compiler()
        work = [
            (name, label, program, setting)
            for name, program in golden_programs()
            for label, setting in golden_settings()
        ]

        def digest(numbered):
            index, (name, label, program, setting) = numbered
            if index % 97 == 0:
                compiler.clear_cache()
            return name, label, binary_digest(compiler.compile(program, setting))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(digest, enumerate(work), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        drifted = [
            f"{name}/{label}"
            for name, label, value in results
            if value != golden[name][label]
        ]
        assert len(results) == len(work) and not drifted


class TestSourceProgramsUntouched:
    def test_compiling_leaves_cached_mibench_programs_intact(self, digests):
        """Every golden compile has run (the ``digests`` fixture); the
        lru-cached source programs must still equal freshly built ones."""
        for name in mibench_names():
            fresh = build_program(mibench_spec(name))
            assert repr(mibench_program(name)) == repr(fresh), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_compile_golden.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
