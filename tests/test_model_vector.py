"""The ranking kernel's contract: exact equality with the scalar model.

:mod:`repro.core.vector` must reproduce the scalar reference functions
:func:`~repro.core.predictor.reference_predict_distribution` and
:func:`~repro.core.predictor.reference_neighbours` float for float —
every mixture theta, every ranked probability, every neighbour distance —
because the service serialises rankings with :func:`canonical_json`, where
bit-identity and byte-identity are the same thing.  The hypothesis suites
assert that over random queries × machines × exclusions × K, the
deterministic tests cover the batch API, the registry's promote-time
sidecar, the service path, and the edge cases (ties in the top-K, batches
that exhaust the candidates); the kernel-poison test proves the
references never touch the batch path they check.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ModelRegistry, Session
from repro.api.facets import (
    profile_with_model,
    ranked_from_distribution,
    ranked_prediction_many,
)
from repro.core import vector as model_vector
from repro.core.predictor import (
    OptimisationPredictor,
    reference_neighbours,
    reference_predict_distribution,
)
from repro.machine.params import BASE_GRID, EXTENDED_GRID, MicroArch
from repro.service.service import PredictionService, canonical_json
from repro.sim.counters import PerfCounters

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


def clone_with(base: OptimisationPredictor, k: int):
    """A fitted predictor sharing ``base``'s pairs with a different K."""
    clone = OptimisationPredictor(
        space=base.space,
        k=k,
        beta=base.beta,
        quantile=base.quantile,
        extended=base.extended,
        feature_mode=base.feature_mode,
    )
    clone._pairs = base._pairs
    clone._normaliser = base._normaliser
    clone._mask = base._mask
    clone._refresh_tensors()
    return clone


def assert_distribution_exact(reference, candidate) -> None:
    assert len(reference.theta) == len(candidate.theta)
    for dim, (a, b) in enumerate(zip(reference.theta, candidate.theta)):
        assert np.array_equal(a, b), f"theta drifted in dimension {dim}"


def reference_ranked(model, query: dict):
    """The ranked prediction ``query`` gets from the scalar reference."""
    distribution = reference_predict_distribution(
        model, query["counters"], query["machine"]
    )
    return ranked_from_distribution(
        distribution, query["machine"], query["top"], query.get("program")
    )


@pytest.fixture(scope="module")
def fitted(tiny_data):
    training = tiny_data.training
    model = OptimisationPredictor(extended=training.extended).fit(training)
    return {"training": training, "model": model}


class TestStableTopK:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=1, max_value=5),
        cols=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=45),
        levels=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_argsort(self, seed, rows, cols, k, levels):
        """Heavy ties (few distinct values) are exactly where argpartition
        alone would diverge from a stable sort — the repair must fix it."""
        rng = np.random.default_rng(seed)
        distances = rng.choice(
            np.linspace(0.0, 1.0, levels), size=(rows, cols)
        )
        k = min(k, cols)
        expected = np.argsort(distances, axis=1, kind="stable")[:, :k]
        assert np.array_equal(
            model_vector.stable_topk(distances, k), expected
        )

    def test_handles_inf_padding(self):
        distances = np.array([[np.inf, 2.0, 2.0, 1.0, np.inf, 2.0]])
        assert model_vector.stable_topk(distances, 3).tolist() == [[3, 1, 2]]


class TestScalarVectorEquivalence:
    @given(
        p=st.integers(min_value=0, max_value=5),
        m=st.integers(min_value=0, max_value=5),
        factor=st.floats(
            min_value=0.25, max_value=4.0, allow_nan=False, width=64
        ),
        machine=machines_strategy,
        use_training_machine=st.booleans(),
        exclusion=st.sampled_from(["none", "program", "machine", "both"]),
        k=st.sampled_from([1, 2, 7, 13, 10_000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_predict_distribution_rank_and_neighbours_exact(
        self, fitted, p, m, factor, machine, use_training_machine,
        exclusion, k,
    ):
        training = fitted["training"]
        p %= len(training.program_names)
        m %= len(training.machines)
        name = training.program_names[p]
        query_machine = (
            training.machines[m] if use_training_machine else machine
        )
        # Perturb the profile but keep the [0, 1]-constrained rates valid.
        counters = PerfCounters(
            *np.minimum(training.counters[p, m, :] * factor, 1.0)
        )
        exclude_program = name if exclusion in ("program", "both") else None
        exclude_machine = (
            training.machines[m] if exclusion in ("machine", "both") else None
        )
        model = clone_with(fitted["model"], k)
        query = (counters, query_machine, exclude_program, exclude_machine)

        reference = reference_predict_distribution(model, *query)
        candidate = model.predict_distribution(*query)
        assert_distribution_exact(reference, candidate)
        assert reference.mode() == candidate.mode()
        assert reference.top_settings(5) == candidate.top_settings(5)
        assert reference_neighbours(model, *query) == model.neighbours(*query)

    def test_unseen_exclusion_keys_match_nothing(self, fitted):
        """Excluding a program/machine the model never trained on must be
        a no-op on both paths (the id-mask maps unknowns to -1)."""
        training = fitted["training"]
        counters = PerfCounters(*training.counters[0, 0, :])
        unknown_machine = next(
            candidate
            for size in BASE_GRID["il1_size"]
            for assoc in BASE_GRID["il1_assoc"]
            if (
                candidate := dataclasses.replace(
                    training.machines[0], il1_size=size, il1_assoc=assoc
                )
            )
            not in training.machines
        )
        model = fitted["model"]
        for predict in (
            model.predict_distribution,
            functools.partial(reference_predict_distribution, model),
        ):
            baseline = predict(counters, training.machines[0])
            excluded = predict(
                counters,
                training.machines[0],
                exclude_program="no-such-program",
                exclude_machine=unknown_machine,
            )
            assert_distribution_exact(baseline, excluded)


class TestBatchedMany:
    def _grid_queries(self, training):
        queries = []
        for p, name in enumerate(training.program_names):
            for m, machine in enumerate(training.machines):
                queries.append(
                    (
                        PerfCounters(*training.counters[p, m, :]),
                        machine,
                        name,
                        machine,
                    )
                )
        return queries

    def test_batch_equals_scalar_singles(self, fitted):
        training = fitted["training"]
        queries = self._grid_queries(training)
        model = fitted["model"]
        batch = model.predict_distribution_many(
            [q[0] for q in queries],
            [q[1] for q in queries],
            exclude_programs=[q[2] for q in queries],
            exclude_machines=[q[3] for q in queries],
        )
        for query, candidate in zip(queries, batch):
            reference = reference_predict_distribution(model, *query)
            assert_distribution_exact(reference, candidate)

    def test_predict_many_and_rank_many_match(self, fitted):
        training = fitted["training"]
        queries = self._grid_queries(training)[:8]
        counters = [q[0] for q in queries]
        machines = [q[1] for q in queries]
        model = fitted["model"]
        modes = model.predict_many(counters, machines)
        ranks = model.rank_many(counters, machines, top=3)
        for i, query in enumerate(queries):
            reference = reference_predict_distribution(model, query[0], query[1])
            assert modes[i] == reference.mode()
            assert ranks[i] == reference.top_settings(3)

    def test_empty_batch_and_length_mismatch(self, fitted):
        model = fitted["model"]
        assert model.predict_distribution_many([], []) == []
        training = fitted["training"]
        counters = PerfCounters(*training.counters[0, 0, :])
        with pytest.raises(ValueError, match="equal length"):
            model.predict_distribution_many([counters], training.machines[:2])
        with pytest.raises(ValueError, match="exclude_programs"):
            model.predict_distribution_many(
                [counters], [training.machines[0]], exclude_programs=["a", "b"]
            )

    def test_unfitted_many_raises(self):
        model = OptimisationPredictor()
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict_distribution_many([], [])

    def test_exhausted_candidates_raise_in_batch(self, fitted):
        """Mixed batches surface the reference's RuntimeError when any
        query's exclusions wipe out every training pair."""
        training = fitted["training"]
        only = training.program_names[0]
        base = fitted["model"]
        narrowed = clone_with(base, base.k)
        narrowed._pairs = [pair for pair in base._pairs if pair.program == only]
        narrowed._refresh_tensors()
        counters = PerfCounters(*training.counters[0, 0, :])
        with pytest.raises(RuntimeError, match="no training pairs"):
            reference_predict_distribution(
                narrowed, counters, training.machines[0], only
            )
        with pytest.raises(RuntimeError, match="no training pairs"):
            narrowed.predict_distribution_many(
                [counters, counters],
                [training.machines[0]] * 2,
                exclude_programs=[None, only],
            )

    def test_ranked_prediction_many_payloads_are_byte_identical(self, fitted):
        training = fitted["training"]
        queries = [
            {
                "counters": PerfCounters(*training.counters[p, m, :]),
                "machine": training.machines[m],
                "top": 1 + (p + m) % 4,
                "program": training.program_names[p],
            }
            for p in range(3)
            for m in range(3)
        ]
        batch = ranked_prediction_many(fitted["model"], queries)
        for query, prediction in zip(queries, batch):
            single = reference_ranked(fitted["model"], query)
            assert canonical_json(prediction.payload()) == canonical_json(
                single.payload()
            )


class TestRegistrySidecar:
    @pytest.fixture()
    def registered(self, tmp_path, fitted):
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.register(
            fitted["model"], fingerprint="f" * 16, promote=True
        )
        return registry, entry

    def test_promote_writes_ranking_ready_arrays(self, registered, fitted):
        registry, entry = registered
        sidecar = registry._arrays_path(entry.version)
        assert sidecar.exists()
        with np.load(sidecar) as data:
            assert str(data["digest"]) == entry.digest
            assert data["features"].shape[0] == len(fitted["model"]._pairs)
            assert data["theta"].ndim == 3

        loaded, _ = registry.load(entry.version)
        assert loaded._tensors is not None
        assert np.array_equal(
            loaded._tensors.features, fitted["model"]._tensors.features
        )
        assert np.array_equal(
            loaded._tensors.theta, fitted["model"]._tensors.theta
        )

    def test_loaded_model_predicts_bit_identically(self, registered, fitted):
        registry, entry = registered
        training = fitted["training"]
        loaded, _ = registry.load(entry.version)
        counters = PerfCounters(*training.counters[1, 2, :])
        reference = reference_predict_distribution(
            fitted["model"], counters, training.machines[2]
        )
        assert_distribution_exact(
            reference,
            loaded.predict_distribution(counters, training.machines[2]),
        )

    def test_corrupt_sidecar_falls_back_to_rebuild(self, registered, fitted):
        registry, entry = registered
        registry._arrays_path(entry.version).write_bytes(b"not an npz")
        loaded, _ = registry.load(entry.version)
        assert loaded._tensors is not None
        training = fitted["training"]
        counters = PerfCounters(*training.counters[0, 1, :])
        assert_distribution_exact(
            reference_predict_distribution(
                fitted["model"], counters, training.machines[1]
            ),
            loaded.predict_distribution(counters, training.machines[1]),
        )

    @pytest.mark.parametrize("sidecar", ["valid", "corrupt"])
    def test_load_stacks_tensors_once(self, registered, monkeypatch, sidecar):
        """Loading never stacks twice: the sidecar is attached, or the
        tensors are rebuilt, in one pass either way."""
        registry, entry = registered
        if sidecar == "corrupt":
            registry._arrays_path(entry.version).write_bytes(b"not an npz")
        stackings = []
        from_pairs = model_vector.PredictorTensors.from_pairs.__func__

        def counting(cls, *args, **kwargs):
            stackings.append(kwargs.get("features") is not None or len(args) > 2)
            return from_pairs(cls, *args, **kwargs)

        monkeypatch.setattr(
            model_vector.PredictorTensors, "from_pairs", classmethod(counting)
        )
        loaded, _ = registry.load(entry.version)
        assert loaded._tensors is not None
        assert stackings == [sidecar == "valid"]


class TestServiceBatchEquivalence:
    def test_batched_predict_matches_scalar_service_byte_for_byte(
        self, tmp_path, tiny_data
    ):
        """The acceptance gate: batched /predict answers must serialise to
        the exact bytes of a per-item profile ranked by the scalar
        reference."""
        trainer = Session("tiny", cache_dir=tmp_path, use_disk_cache=False)
        trainer.models.fit(tiny_data.training)
        trainer.models.register(promote=True)

        machine = dataclasses.asdict(tiny_data.training.machines[0])
        payload = {
            "items": [
                {"program": name, "machine": machine, "top": 3}
                for name in tiny_data.training.program_names[:3]
            ]
        }
        session = Session("tiny", cache_dir=tmp_path, use_disk_cache=False)
        service = PredictionService(session)
        model, _ = service._promoted_model()
        expected = []
        for item in payload["items"]:
            machine_obj = tiny_data.training.machines[0]
            profile, _ = profile_with_model(
                model, session.compile(item["program"]), machine_obj,
                session.backend,
            )
            query = {
                "counters": profile.counters,
                "machine": machine_obj,
                "top": item["top"],
                "program": item["program"],
            }
            expected.append(reference_ranked(model, query).payload())
        assert canonical_json(
            {"results": service.predict(payload)["results"]}
        ) == canonical_json({"results": expected})


class TestReferenceOracles:
    def test_scalar_model_references_never_touch_the_kernel(
        self, monkeypatch, fitted
    ):
        """With the ranking kernel poisoned, the scalar references still
        predict, rank, and list neighbours — proof the oracles share no
        code with the kernel they check."""

        def boom(*args, **kwargs):
            raise AssertionError("model vector kernel used by a reference")

        for attr in (
            "predict_distributions",
            "query_distances",
            "stable_topk",
            "nearest_neighbours",
            "stack_state_arrays",
        ):
            monkeypatch.setattr(model_vector, attr, boom)
        monkeypatch.setattr(
            model_vector.PredictorTensors, "from_pairs", boom
        )
        monkeypatch.setattr(
            model_vector.PredictorTensors, "candidate_mask", boom
        )

        training = fitted["training"]
        model = fitted["model"]
        counters = PerfCounters(*training.counters[0, 0, :])
        machine = training.machines[0]
        query = {"counters": counters, "machine": machine, "top": 3}
        ranked = reference_ranked(model, query)
        assert len(ranked.settings) == 3
        distribution = reference_predict_distribution(
            model, counters, machine, training.program_names[0], machine
        )
        assert distribution.mode() is not None
        assert len(reference_neighbours(model, counters, machine)) == model.k
        with pytest.raises(AssertionError, match="kernel used"):
            model.predict_distribution(counters, machine)
