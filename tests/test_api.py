"""Tests for the repro.api Session façade: backends, batching, lifecycle."""

import json
import os

import numpy as np
import pytest

from repro.api import (
    AnalyticBackend,
    EvaluationRequest,
    SearchRequest,
    Session,
    SimulatorBackend,
    TraceBackend,
    load_predictor,
    resolve_backend,
    resolve_jobs,
    run_batch,
)
from repro.compiler.flags import o3_setting
from repro.experiments.config import Scale
from repro.machine.xscale import xscale, xscale_small_icache
from repro.sim.analytic import simulate_analytic


@pytest.fixture(scope="module")
def session():
    return Session("tiny", use_disk_cache=False)


def _square(value):
    # module-level so the process executor can pickle it
    return value * value


class TestParallelHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_run_batch_preserves_order(self):
        items = list(range(17))
        assert run_batch(_square, items) == [i * i for i in items]
        assert run_batch(_square, items, jobs=4, executor="thread") == [
            i * i for i in items
        ]
        assert run_batch(_square, items, jobs=2, executor="process") == [
            i * i for i in items
        ]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            run_batch(_square, [1], executor="gpu")


class TestBackends:
    def test_resolution(self):
        assert resolve_backend(None).name == "analytic"
        assert resolve_backend("analytic").name == "analytic"
        assert resolve_backend("trace").name == "trace"
        assert resolve_backend(TraceBackend).name == "trace"
        backend = TraceBackend(max_loop_iterations=64)
        assert resolve_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("quantum")
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_protocol_conformance(self):
        assert isinstance(AnalyticBackend(), SimulatorBackend)
        assert isinstance(TraceBackend(), SimulatorBackend)

    def test_analytic_backend_matches_simulator(self, session):
        binary = session.compile("sha")
        machine = xscale()
        via_backend = AnalyticBackend().run(binary, machine)
        direct = simulate_analytic(binary, machine)
        assert via_backend.seconds == direct.seconds
        assert via_backend.counters == direct.counters

    def test_trace_backend_is_deterministic(self, session):
        binary = session.compile("crc")
        machine = xscale_small_icache()
        one = TraceBackend().run(binary, machine)
        two = TraceBackend().run(binary, machine)
        assert one.seconds == two.seconds
        assert one.counters == two.counters

    def test_backends_swappable_via_same_call(self, session):
        machine = xscale()
        analytic = session.eval.evaluate("sha", machine)
        trace = session.eval.evaluate("sha", machine, backend="trace")
        assert analytic.backend == "analytic"
        assert trace.backend == "trace"
        assert analytic.runtime > 0 and trace.runtime > 0
        # Same program/setting/machine provenance either way.
        assert analytic.program == trace.program == "sha"
        assert analytic.setting == trace.setting


class TestEvaluate:
    def test_default_setting_is_o3(self, session):
        result = session.eval.evaluate("sha", xscale())
        assert result.setting == o3_setting()
        assert result.runtime == pytest.approx(result.simulation.seconds)
        assert result.cycles > 0
        assert result.energy_nj > 0

    def test_request_object_and_kwargs_agree(self, session):
        machine = xscale()
        via_request = session.eval.evaluate(EvaluationRequest("crc", machine))
        via_kwargs = session.eval.evaluate("crc", machine)
        assert via_request == via_kwargs

    def test_machine_required(self, session):
        with pytest.raises(TypeError):
            session.eval.evaluate("sha")

    def test_speedup_of_o3_is_one(self, session):
        assert session.eval.speedup_over_o3(
            "sha", xscale(), o3_setting()
        ) == pytest.approx(1.0)

    def test_batch_accepts_tuples_and_preserves_order(self, session):
        machine = xscale()
        names = ["sha", "crc", "qsort", "sha"]
        results = session.eval.batch([(name, machine) for name in names])
        assert [result.program for result in results] == names

    def test_batch_parallel_equals_serial(self, session):
        machines = [xscale(), xscale_small_icache()]
        lean = o3_setting().with_values(finline_functions=False)
        requests = [
            EvaluationRequest(name, machine, setting)
            for name in ("sha", "crc")
            for machine in machines
            for setting in (None, lean)
        ]
        serial = session.eval.batch(requests, jobs=1)
        threaded = session.eval.batch(requests, jobs=2, executor="thread")
        processed = session.eval.batch(requests, jobs=2, executor="process")
        for reference, thread_run, process_run in zip(serial, threaded, processed):
            assert thread_run == reference
            assert process_run == reference

    def test_batch_backend_override_per_request(self, session):
        machine = xscale()
        results = session.eval.batch(
            [
                EvaluationRequest("crc", machine),
                EvaluationRequest("crc", machine, backend="trace"),
            ]
        )
        assert [result.backend for result in results] == ["analytic", "trace"]


class TestModelLifecycle:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_data):
        fitted_session = Session("tiny", use_disk_cache=False)
        fitted_session.models.fit(tiny_data.training)
        return fitted_session

    def test_fit_records_fingerprint(self, fitted, tiny_data):
        assert fitted.model is not None
        assert fitted.model_fingerprint == tiny_data.training.fingerprint()

    def test_fingerprint_tracks_content(self, tiny_data):
        training = tiny_data.training
        tweaked_runtimes = training.runtimes.copy()
        tweaked_runtimes[0, 0, 0] *= 1.5
        import dataclasses

        tweaked = dataclasses.replace(training, runtimes=tweaked_runtimes)
        assert tweaked.fingerprint() != training.fingerprint()

    def test_predict_requires_model(self):
        with pytest.raises(RuntimeError):
            Session("tiny").models.predict("sha", xscale())

    def test_save_requires_model(self, tmp_path):
        with pytest.raises(RuntimeError):
            Session("tiny").models.save(tmp_path / "model.json")

    def test_predict_returns_speedup(self, fitted, tiny_data):
        machine = tiny_data.machines[0]
        prediction = fitted.models.predict(
            "sha", machine, exclude_program="sha", exclude_machine=machine
        )
        assert prediction.program == "sha"
        assert prediction.speedup_over_o3 is not None
        assert prediction.speedup_over_o3 > 0
        profile_only = fitted.models.predict("sha", machine, evaluate=False)
        assert profile_only.predicted_run is None
        assert profile_only.speedup_over_o3 is None

    def test_save_load_round_trip_bit_for_bit(self, fitted, tiny_data, tmp_path):
        path = fitted.models.save(tmp_path / "model.json")
        restored_session = Session("tiny", use_disk_cache=False)
        restored_session.models.load(path)
        assert restored_session.model_fingerprint == fitted.model_fingerprint

        for name in tiny_data.training.program_names[:3]:
            for machine in tiny_data.machines[:2]:
                original = fitted.models.predict(name, machine, evaluate=False)
                restored = restored_session.models.predict(name, machine, evaluate=False)
                assert restored.setting == original.setting
                assert restored.profile.seconds == original.profile.seconds

        # The full predictive distribution survives exactly, not just the mode.
        machine = tiny_data.machines[0]
        counters = fitted.eval.evaluate("sha", machine).counters
        original = fitted.model.predict_distribution(counters, machine)
        restored = restored_session.model.predict_distribution(counters, machine)
        for probs_a, probs_b in zip(original.theta, restored.theta):
            assert np.array_equal(probs_a, probs_b)

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "model": {}}))
        with pytest.raises(ValueError):
            load_predictor(path)


class TestSearchApi:
    def test_search_runs_and_reports(self, session):
        outcome = session.eval.search(
            program="crc", machine=xscale(), algorithm="random", budget=12, seed=3
        )
        assert outcome.algorithm == "random"
        assert outcome.evaluations == 12
        assert len(outcome.trajectory) == 12
        assert outcome.best_runtime <= outcome.trajectory[0]
        assert outcome.best_speedup > 0
        assert outcome.evaluations_to_reach(float("inf")) == 1
        assert outcome.evaluations_to_reach(0.0) is None

    def test_search_request_object(self, session):
        request = SearchRequest(
            program="crc", machine=xscale(), algorithm="random", budget=5, seed=3
        )
        outcome = session.eval.search(request)
        assert outcome.evaluations == 5
        with pytest.raises(TypeError):
            session.eval.search(request, budget=5)

    def test_unknown_algorithm_rejected(self, session):
        with pytest.raises(ValueError):
            session.eval.search(program="crc", machine=xscale(), algorithm="bogus")

    def test_search_on_trace_backend(self, session):
        outcome = session.eval.search(
            program="crc",
            machine=xscale(),
            algorithm="random",
            budget=4,
            seed=3,
            backend=TraceBackend(max_loop_iterations=64),
        )
        analytic = session.eval.search(
            program="crc", machine=xscale(), algorithm="random", budget=4, seed=3
        )
        # Same protocol, different timing tier: the o3 reference differs.
        assert outcome.evaluations == analytic.evaluations == 4
        assert outcome.o3_runtime != analytic.o3_runtime


class TestSessionConfig:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            Session("galactic")

    def test_disk_cache_honours_cache_dir(self, tmp_path):
        scale = Scale(
            name="apitest",
            programs=("crc", "sha"),
            n_machines=2,
            n_settings=2,
        )
        caching = Session(scale, cache_dir=tmp_path)
        data = caching.data.dataset()
        assert data.training.runtimes.shape == (2, 2, 2)
        store_dirs = list(tmp_path.glob("store-apitest-*"))
        assert len(store_dirs) == 1
        assert (store_dirs[0] / "manifest.json").exists()
        assert list((store_dirs[0] / "shards").glob("*.npz"))

    def test_dataset_build_with_jobs_matches_serial(self, tmp_path):
        from repro.core.training import generate_training_set
        from repro.programs.mibench import mibench_program

        session_for_machines = Session("tiny")
        machines = session_for_machines.machines(2, seed=5)
        programs = [mibench_program(name) for name in ("crc", "sha")]
        serial = generate_training_set(programs, machines, n_settings=3, seed=7)
        parallel = generate_training_set(
            programs, machines, n_settings=3, seed=7, jobs=2
        )
        assert np.array_equal(serial.runtimes, parallel.runtimes)
        assert np.array_equal(serial.o3_runtimes, parallel.o3_runtimes)
        assert np.array_equal(serial.counters, parallel.counters)
        assert np.array_equal(serial.code_features, parallel.code_features)
        assert serial.fingerprint() == parallel.fingerprint()

    def test_dataset_build_negative_jobs_and_custom_compiler(self):
        from repro.compiler.pipeline import Compiler
        from repro.core.training import generate_training_set
        from repro.programs.mibench import mibench_program

        machines = Session("tiny").machines(2, seed=5)
        programs = [mibench_program(name) for name in ("crc", "sha")]
        # A non-default compiler configuration must survive the process
        # boundary, and negative jobs must mean "all cores", not serial.
        serial = generate_training_set(
            programs, machines, n_settings=2, seed=7, compiler=Compiler(cache=False)
        )
        parallel = generate_training_set(
            programs,
            machines,
            n_settings=2,
            seed=7,
            compiler=Compiler(cache=False),
            jobs=-1,
        )
        assert np.array_equal(serial.runtimes, parallel.runtimes)
        assert serial.fingerprint() == parallel.fingerprint()

    def test_load_model_checks_flag_space(self, tmp_path, tiny_data):
        from repro.compiler.flags import FLAG_SPECS, FlagSpace

        fitted = Session("tiny", use_disk_cache=False)
        fitted.models.fit(tiny_data.training)
        path = fitted.models.save(tmp_path / "model.json")
        with pytest.raises(ValueError):
            load_predictor(path, space=FlagSpace(FLAG_SPECS[:5]))
