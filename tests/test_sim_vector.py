"""The vector kernel's contract: exact equality with the scalar model.

:func:`repro.sim.vector.simulate_many` must reproduce
:func:`repro.sim.analytic.simulate_analytic` float for float — seconds,
cycles, every Table 1 counter, energy, every breakdown component, and
the detail dict — because the golden fingerprints and the byte-identical
protocol guarantees all hash its outputs.  The hypothesis suite here
asserts that pairwise over random generated programs × random flag
settings × random Table 2 machines; the deterministic tests cover the
rewired call sites and the structural edge cases (no loops, no accesses,
padding across dissimilar binaries).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simple_loop_program
from repro.compiler.flags import DEFAULT_SPACE, o3_setting
from repro.compiler.pipeline import Compiler
from repro.machine.params import BASE_GRID, EXTENDED_GRID, MicroArch, MicroArchSpace
from repro.programs import mibench_program
from repro.sim.analytic import simulate_analytic
from repro.sim.counters import COUNTER_NAMES
from repro.sim.vector import (
    BREAKDOWN_NAMES,
    BinarySignature,
    MachineMatrix,
    simulate_grid,
    simulate_many,
)

FUZZ_PROGRAMS = ("search", "crc", "qsort", "rawcaudio")

machines_strategy = st.builds(
    MicroArch,
    il1_size=st.sampled_from(BASE_GRID["il1_size"]),
    il1_assoc=st.sampled_from(BASE_GRID["il1_assoc"]),
    il1_block=st.sampled_from(BASE_GRID["il1_block"]),
    dl1_size=st.sampled_from(BASE_GRID["dl1_size"]),
    dl1_assoc=st.sampled_from(BASE_GRID["dl1_assoc"]),
    dl1_block=st.sampled_from(BASE_GRID["dl1_block"]),
    btb_entries=st.sampled_from(BASE_GRID["btb_entries"]),
    btb_assoc=st.sampled_from(BASE_GRID["btb_assoc"]),
    frequency_mhz=st.sampled_from(EXTENDED_GRID["frequency_mhz"]),
    issue_width=st.sampled_from(EXTENDED_GRID["issue_width"]),
)


@st.composite
def binaries_strategy(draw):
    """A compiled binary: synthetic loop program or MiBench, random flags."""
    setting = DEFAULT_SPACE.sample_many(
        1, seed=draw(st.integers(min_value=0, max_value=50_000))
    )[0]
    if draw(st.booleans()):
        program = mibench_program(draw(st.sampled_from(FUZZ_PROGRAMS)))
    else:
        program = simple_loop_program(
            name="fuzz",
            body_insns=draw(st.integers(min_value=1, max_value=64)),
            trip_count=float(draw(st.integers(min_value=1, max_value=2000))),
            entries=float(draw(st.integers(min_value=1, max_value=64))),
            region_size=draw(st.integers(min_value=64, max_value=2**21)),
        )
    return Compiler(cache=False).compile(program, setting)


def assert_pair_exact(reference, results, s: int, m: int) -> None:
    """One (binary, machine) pair: every scalar output, bit for bit."""
    vec = results.result(s, m)
    assert vec.seconds == reference.seconds
    assert vec.cycles == reference.cycles
    assert vec.energy_nj == reference.energy_nj
    assert vec.counters.vector() == reference.counters.vector()
    for name in BREAKDOWN_NAMES:
        assert getattr(vec.breakdown, name) == getattr(reference.breakdown, name)
    assert vec.detail == reference.detail
    # The raw tensors agree with the materialised views.
    assert float(results.seconds[s, m]) == reference.seconds
    assert tuple(results.counters[s, m, :]) == reference.counters.vector()
    assert float(results.energy_nj[s, m]) == reference.energy_nj


class TestHypothesisEquivalence:
    @given(
        binary=binaries_strategy(),
        machine=machines_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_single_pair_exact(self, binary, machine):
        results = simulate_grid([binary], [machine])
        assert_pair_exact(simulate_analytic(binary, machine), results, 0, 0)

    @given(
        binaries=st.lists(binaries_strategy(), min_size=2, max_size=4),
        machines=st.lists(
            machines_strategy, min_size=2, max_size=4, unique=True
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_grid_exact(self, binaries, machines):
        """Dissimilar binaries share one padded batch without cross-talk."""
        results = simulate_grid(binaries, machines)
        assert results.shape == (len(binaries), len(machines))
        for s, binary in enumerate(binaries):
            for m, machine in enumerate(machines):
                assert_pair_exact(
                    simulate_analytic(binary, machine), results, s, m
                )

    @given(
        binary=binaries_strategy(),
        machines=st.lists(
            machines_strategy, min_size=1, max_size=6, unique=True
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_batching_is_order_free(self, binary, machines):
        """A pair's value never depends on its batch neighbours."""
        alone = simulate_grid([binary], [machines[0]])
        together = simulate_grid([binary], machines)
        assert float(alone.seconds[0, 0]) == float(together.seconds[0, 0])
        assert np.array_equal(alone.counters[0, 0, :], together.counters[0, 0, :])


class TestStructuralEdges:
    def test_paper_grid_settings_and_machines(self):
        """A realistic shard: several settings × sampled machines, exact."""
        compiler = Compiler()
        program = mibench_program("search")
        settings_list = [o3_setting()] + DEFAULT_SPACE.sample_many(5, seed=9)
        binaries = [compiler.compile(program, s) for s in settings_list]
        machines = MicroArchSpace(extended=True).sample(16, seed=5)
        results = simulate_grid(binaries, machines)
        for s, binary in enumerate(binaries):
            for m, machine in enumerate(machines):
                assert_pair_exact(
                    simulate_analytic(binary, machine), results, s, m
                )

    def test_loopless_binary(self):
        """No loops and no loop accesses: only flat streams and padding."""
        program = simple_loop_program(name="tiny", trip_count=1.0, entries=1.0)
        binary = Compiler(cache=False).compile(program, o3_setting())
        # Pair it with a loopy binary so the padded axes are non-trivial.
        other = Compiler(cache=False).compile(
            mibench_program("madplay"), o3_setting()
        )
        machines = MicroArchSpace().sample(3, seed=1)
        results = simulate_grid([binary, other], machines)
        for s, b in enumerate((binary, other)):
            for m, machine in enumerate(machines):
                assert_pair_exact(simulate_analytic(b, machine), results, s, m)

    def test_machine_matrix_reuse(self):
        """One MachineMatrix serves many simulate_many calls."""
        machines = MicroArchSpace().sample(4, seed=2)
        matrix = MachineMatrix.from_machines(machines)
        binary = Compiler().compile(mibench_program("crc"), o3_setting())
        signature = BinarySignature.from_binary(binary)
        first = simulate_many([signature], matrix)
        second = simulate_many([signature, signature], matrix)
        assert np.array_equal(first.seconds[0], second.seconds[1])

    def test_signature_rejects_unknown_kind(self):
        import dataclasses

        binary = Compiler().compile(mibench_program("crc"), o3_setting())
        bad = dataclasses.replace(
            binary.flat_accesses[0], kind="mystery"
        ) if binary.flat_accesses else None
        if bad is None:
            pytest.skip("no flat accesses on this binary")
        binary.flat_accesses.append(bad)
        with pytest.raises(ValueError, match="unknown region kind"):
            BinarySignature.from_binary(binary)

    def test_counter_tensor_layout(self):
        binary = Compiler().compile(mibench_program("crc"), o3_setting())
        machine = MicroArchSpace().sample(1, seed=3)[0]
        results = simulate_grid([binary], [machine])
        reference = simulate_analytic(binary, machine)
        for k, name in enumerate(COUNTER_NAMES):
            assert float(results.counters[0, 0, k]) == getattr(
                reference.counters, name
            )


class TestRewiredCallSites:
    def test_compute_shard_vector_matches_scalar(self):
        from repro.store.compute import compute_shard, compute_shard_reference

        program = mibench_program("search")
        machines = MicroArchSpace().sample(6, seed=4)
        settings_list = DEFAULT_SPACE.sample_many(4, seed=11)
        vector = compute_shard(program, machines, settings_list)
        scalar = compute_shard_reference(program, machines, settings_list)
        for got, want in zip(vector, scalar):
            assert np.array_equal(got, want)

    def test_evaluator_batch_matches_sequential(self):
        from repro.autotune import Evaluator

        machine = MicroArchSpace().sample(1, seed=8)[0]
        settings_list = DEFAULT_SPACE.sample_many(6, seed=21)
        batched = Evaluator(
            program=mibench_program("crc"), machine=machine
        )
        sequential = Evaluator(
            program=mibench_program("crc"), machine=machine
        )
        many = batched.evaluate_many(settings_list)
        each = [sequential.evaluate(s) for s in settings_list]
        assert many == each
        assert batched.evaluations == sequential.evaluations
        # Memoised: a second batch does no new work.
        again = batched.evaluate_many(settings_list)
        assert again == many
        assert batched.evaluations == len(settings_list)

    def test_scalar_references_never_touch_the_kernel(
        self, monkeypatch, tiny_data
    ):
        """With the kernel poisoned, every scalar reference still runs —
        the per-item batch, sequential evaluator, shard, and oracle
        paths — proof the oracles share no code with the kernel they
        check."""
        from repro.api import Session
        from repro.autotune import Evaluator
        from repro.evalrun.oracle import RuntimeOracle
        from repro.store.compute import compute_shard_reference

        def boom(*args, **kwargs):
            raise AssertionError("vector kernel used by a scalar reference")

        for target in (
            "repro.sim.vector.simulate_many",
            "repro.store.compute.simulate_many",
            "repro.evalrun.oracle.simulate_many",
            "repro.api.backends.simulate_grid",
            "repro.autotune.evaluator.simulate_grid",
        ):
            module_name, attr = target.rsplit(".", 1)
            module = __import__(module_name, fromlist=[attr])
            monkeypatch.setattr(module, attr, boom)

        session = Session("tiny", use_disk_cache=False)
        machine = session.machines(1, seed=13)[0]
        items = [session.eval.evaluate(name, machine) for name in ("crc", "sha")]
        assert len(items) == 2
        with pytest.raises(AssertionError, match="vector kernel"):
            session.eval.batch([("crc", machine), ("sha", machine)])

        evaluator = Evaluator(program=mibench_program("crc"), machine=machine)
        settings_list = DEFAULT_SPACE.sample_many(4, seed=2)
        assert len([evaluator.evaluate(s) for s in settings_list]) == 4

        training = tiny_data.training
        runtimes, o3_runtimes, counters, _ = compute_shard_reference(
            tiny_data.programs[0], training.machines, training.settings
        )
        assert np.array_equal(runtimes, training.runtimes[0])
        assert np.array_equal(o3_runtimes, training.o3_runtimes[0])
        assert np.array_equal(counters, training.counters[0])

        oracle = RuntimeOracle(training, tiny_data.programs)
        off_grid = DEFAULT_SPACE.sample_many(1, seed=991)[0]
        program = training.program_names[0]
        each = [
            oracle.runtime(program, off_grid, machine)
            for machine in training.machines
        ]
        assert len(each) == len(training.machines)

    def test_oracle_runtime_many_matches_sequential(self, tiny_data):
        from repro.evalrun.oracle import RuntimeOracle

        training = tiny_data.training
        off_grid = DEFAULT_SPACE.sample_many(2, seed=991)
        settings_list = [off_grid[m % 2] for m in range(len(training.machines))]
        settings_list += [training.settings[0], off_grid[0]]
        machines = list(training.machines) + list(training.machines[:2])
        program = training.program_names[0]
        batched = RuntimeOracle(training, tiny_data.programs)
        sequential = RuntimeOracle(training, tiny_data.programs)
        many = batched.runtime_many(program, settings_list, machines)
        each = [
            sequential.runtime(program, setting, machine)
            for setting, machine in zip(settings_list, machines)
        ]
        assert many == each
        assert batched.simulation_calls == sequential.simulation_calls
        assert batched.store_hits == sequential.store_hits

    def test_eval_facet_batch_vector_path(self):
        from repro.api import Session

        session = Session(scale="tiny", use_disk_cache=False)
        machines = session.machines(2, seed=31)
        requests = [
            (name, machine)
            for name in ("crc", "search")
            for machine in machines
        ]
        fast = session.eval.batch(requests)
        slow = [session.eval.evaluate(*request) for request in requests]
        for got, want in zip(fast, slow):
            assert got.runtime == want.runtime
            assert got.simulation.counters == want.simulation.counters
            assert got.program == want.program and got.machine == want.machine
