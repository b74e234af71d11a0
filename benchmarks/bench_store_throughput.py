"""Micro-benchmarks: experiment-store shard I/O and the shard hot path.

These are the per-unit costs that determine dataset-build wall-clock:
writing/reading one checkpointed shard, the compile-once/simulate-many
shard computation, and (as a contrast) the naive compile-per-simulation
loop it replaces.  Run with ``pytest benchmarks/ --benchmark-only``.

``PYTHONPATH=src python benchmarks/bench_store_throughput.py [--smoke]
[--out BENCH_shard.json]`` emits the machine-readable ``BENCH_shard.json``
artifact: the simulate phase of :func:`~repro.store.compute.compute_shard`
timed scalar vs vectorised at paper-scale machine counts (compilation is
warmed out through the memoising compiler so the contrast isolates the
phase the vector kernel accelerates).
"""

import itertools

from repro.compiler.flags import DEFAULT_SPACE
from repro.compiler.pipeline import Compiler
from repro.machine.params import MicroArchSpace
from repro.programs import mibench_program
from repro.sim import simulate_analytic
from repro.store import ExperimentStore, GridSpec, ShardKey, compute_shard
from repro.store.compute import compute_shard_reference

#: One representative shard: a small program across an 8-machine chunk.
N_MACHINES = 8
N_SETTINGS = 12


def _grid() -> GridSpec:
    return GridSpec(
        program_names=("search",),
        machines=tuple(MicroArchSpace().sample(N_MACHINES, seed=42)),
        settings=tuple(DEFAULT_SPACE.sample_many(N_SETTINGS, seed=7)),
        chunk_machines=N_MACHINES,
    )


def _shard_arrays(grid: GridSpec):
    return compute_shard(
        mibench_program("search"), list(grid.machines), list(grid.settings)
    )


def test_shard_write(benchmark, tmp_path):
    """One checkpoint: atomic npz + fingerprinted sidecar."""
    grid = _grid()
    arrays = _shard_arrays(grid)
    key = ShardKey(0, 0)
    counter = itertools.count()

    def fresh_store():
        # Shards are append-only, so each round writes into a new store.
        return (ExperimentStore(grid, root=tmp_path / f"s{next(counter)}"),), {}

    benchmark.pedantic(
        lambda store: store.write_shard(key, arrays),
        setup=fresh_store,
        rounds=30,
    )


def test_shard_read_verified(benchmark, tmp_path):
    """One digest-verified shard load (the resume/assemble path)."""
    grid = _grid()
    store = ExperimentStore(grid, root=tmp_path / "store")
    key = ShardKey(0, 0)
    store.write_shard(key, _shard_arrays(grid))
    result = benchmark(store.read_shard, key)
    assert result[0].shape == (N_SETTINGS, N_MACHINES)


def test_compute_shard_compile_once(benchmark):
    """The hot path: each binary compiled once, simulated on every machine."""
    grid = _grid()
    program = mibench_program("search")
    machines, settings = list(grid.machines), list(grid.settings)
    result = benchmark(
        lambda: compute_shard(program, machines, settings, Compiler(cache=False))
    )
    assert result[0].shape == (N_SETTINGS, N_MACHINES)


def test_compute_shard_naive_recompile(benchmark):
    """Contrast: recompiling per (setting, machine) — what sharding avoids."""
    grid = _grid()
    program = mibench_program("search")
    machines, settings = list(grid.machines), list(grid.settings)

    def naive():
        compiler = Compiler(cache=False)
        for setting in settings:
            for machine in machines:
                simulate_analytic(compiler.compile(program, setting), machine)

    benchmark(naive)


def test_compute_shard_vectorised(benchmark):
    """The vector path: the whole shard in one simulate-many pass."""
    grid = _grid()
    program = mibench_program("search")
    machines, settings = list(grid.machines), list(grid.settings)
    compiler = Compiler()  # memoised: the bench isolates the simulate phase
    compute_shard(program, machines, settings, compiler)
    result = benchmark(
        lambda: compute_shard(program, machines, settings, compiler)
    )
    assert result[0].shape == (N_SETTINGS, N_MACHINES)


# --------------------------------------------------------------- artifact
def emit_artifact(out: str, smoke: bool) -> dict:
    """Time ``compute_shard``'s simulate phase scalar vs vectorised.

    Machines stay at paper scale (the §4.2 sample is 200) in both modes —
    that is the axis the acceptance bar is defined on; smoke mode trims
    the setting axis to keep CI wall-clock down.  A shared memoising
    compiler is warmed first so both timed paths measure simulation, not
    compilation.
    """
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    import numpy as np
    from perfjson import emit, measure, throughput

    n_settings, n_machines = (4, 200) if smoke else (12, 200)
    program = mibench_program("search")
    machines = MicroArchSpace(extended=True).sample(n_machines, seed=42)
    settings = list(DEFAULT_SPACE.sample_many(n_settings, seed=7))
    compiler = Compiler()
    compute_shard(program, machines, settings, compiler)  # warm the memo
    pairs = (n_settings + 1) * n_machines  # settings plus the -O3 baseline

    scalar_timing = throughput(
        measure(
            lambda: compute_shard_reference(program, machines, settings, compiler),
            rounds=3,
        ),
        pairs,
    )
    vector_timing = throughput(
        measure(
            lambda: compute_shard(program, machines, settings, compiler),
            rounds=3,
        ),
        pairs,
    )

    scalar_arrays = compute_shard_reference(program, machines, settings, compiler)
    vector_arrays = compute_shard(program, machines, settings, compiler)
    if not all(
        np.array_equal(got, want)
        for got, want in zip(vector_arrays, scalar_arrays)
    ):
        raise SystemExit("vectorised compute_shard drifted from the scalar path")

    payload = {
        "benchmark": "shard_simulate_phase",
        "smoke": smoke,
        "settings": n_settings,
        "machines": n_machines,
        "scalar": scalar_timing,
        "vector": vector_timing,
        "speedup": scalar_timing["best_seconds"] / vector_timing["best_seconds"],
        "exact_match": True,
    }
    emit(out, payload)
    return payload


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_shard.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the simulate-phase speedup lands below this",
    )
    args = parser.parse_args()
    result = emit_artifact(args.out, args.smoke)
    if args.min_speedup is not None and result["speedup"] < args.min_speedup:
        raise SystemExit(
            f"speedup {result['speedup']:.1f}x below floor {args.min_speedup}x"
        )
