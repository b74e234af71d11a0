"""Session API v2: facets and warning-clean examples."""

from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.api import (
    DataFacet,
    EvalFacet,
    EvaluationRequest,
    ModelsFacet,
    ProtocolFacet,
    Session,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def session():
    return Session("tiny", use_disk_cache=False)


@pytest.fixture(scope="module")
def fitted(session):
    session.models.fit()
    return session


class TestFacetConstruction:
    def test_facets_are_lazy_and_cached(self):
        fresh = Session("tiny", use_disk_cache=False)
        assert fresh._facets == {}
        data = fresh.data
        assert isinstance(data, DataFacet)
        assert fresh.data is data  # one instance per session
        assert isinstance(fresh.models, ModelsFacet)
        assert isinstance(fresh.eval, EvalFacet)
        assert isinstance(fresh.protocol, ProtocolFacet)
        assert set(fresh._facets) == {"data", "models", "eval", "protocol"}

    def test_facets_share_session_state(self, fitted):
        # The models facet fitted the model; every surface sees it.
        assert fitted.models.model is fitted.model
        assert fitted.models.fingerprint == fitted.model_fingerprint
        assert fitted.model_fingerprint is not None

    def test_eval_batch_round_trip(self, session, machine):
        results = session.eval.batch(
            [EvaluationRequest("sha", machine), ("crc", machine)]
        )
        assert [result.program for result in results] == ["sha", "crc"]

    def test_models_predict_and_rank_agree(self, fitted, machine):
        prediction = fitted.models.predict("sha", machine, evaluate=False)
        ranked = fitted.models.rank("sha", machine, top=3)
        assert ranked.best == prediction.setting
        assert [entry.rank for entry in ranked.settings] == [1, 2, 3]
        probabilities = [entry.probability for entry in ranked.settings]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_rank_payload_is_json_ready(self, fitted, machine):
        import json

        ranked = fitted.models.rank("sha", machine, top=2)
        payload = ranked.payload()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["settings"][0]["rank"] == 1
        assert round_tripped["machine"]["il1_size"] == machine.il1_size

    def test_protocol_facet_runs_capped(self):
        capped = Session("tiny", use_disk_cache=False)
        seen = []
        outcome = capped.protocol.run(
            only="headline",
            max_folds=2,
            on_fold=lambda key, done, total: seen.append((key.stem(), done, total)),
        )
        assert not outcome.complete
        assert len(seen) == 2
        assert seen[0][1] == 1 and seen[1][1] == 2
        assert seen[0][2] == seen[1][2]  # stable total

    def test_facet_calls_never_warn(self, fitted, machine):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fitted.eval.evaluate("sha", machine)
            fitted.models.predict("sha", machine, evaluate=False)
            fitted.data.status()


#: Flat spellings, from before the facets, that examples must not use.
_DEPRECATED_SPELLINGS = tuple(
    f".{name}("
    for name in (
        "evaluate_batch",
        "run_protocol",
        "save_model",
        "load_model",
        "build_dataset",
        "dataset_status",
        "experiment_store",
        "protocol_store",
        "speedup_over_o3",
    )
) + ("session.evaluate(", "session.fit(", "session.predict(", "session.search(",
     "deployment.predict(", "deployment.evaluate_batch(")


class TestExamplesOnFacets:
    def test_examples_exist(self):
        assert len(list(EXAMPLES_DIR.glob("*.py"))) == 4

    @pytest.mark.parametrize(
        "example", sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
    )
    def test_example_uses_no_deprecated_spelling(self, example):
        text = (EXAMPLES_DIR / example).read_text()
        hits = [spelling for spelling in _DEPRECATED_SPELLINGS if spelling in text]
        assert not hits, f"{example} still uses deprecated flat calls: {hits}"

    @pytest.mark.parametrize(
        "example", sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
    )
    def test_example_runs_warning_clean(self, example):
        """Every example runs end to end with DeprecationWarning as error."""
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        result = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             str(EXAMPLES_DIR / example)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, (
            f"{example} failed under -W error::DeprecationWarning:\n"
            f"{result.stdout}\n{result.stderr}"
        )


class TestEvalTournament:
    def test_guided_search_through_facet(self, fitted, machine):
        outcome = fitted.eval.search(
            program="sha", machine=machine, algorithm="model-genetic",
            budget=15, seed=0,
        )
        assert outcome.algorithm == "model-genetic"
        assert outcome.evaluations <= 15
        assert outcome.best_runtime <= outcome.o3_runtime * 1.5

    def test_unknown_algorithm_lists_guided_names(self, session, machine):
        with pytest.raises(ValueError, match="model-genetic"):
            session.eval.search(
                program="sha", machine=machine, algorithm="nope", budget=5
            )

    def test_tournament_on_tiny_pair(self, fitted):
        result = fitted.eval.tournament(
            programs=["sha"], machines=1, budget=10, seeds=(0,),
        )
        names = {standing.strategy for standing in result.standings}
        assert {"random", "model-genetic", "beam"} <= names
        assert result.budget == 10
        # Every pair got a best-known floor and every run respects budget.
        assert set(result.best_known) == {("sha", "m0")}
        assert all(run.evaluations <= 10 for run in result.runs)

    def test_tournament_fits_model_when_absent(self):
        fresh = Session("tiny", use_disk_cache=False)
        assert fresh.model is None
        result = fresh.eval.tournament(
            programs=["sha"], machines=1, budget=8, seeds=(0,),
            strategies=["random", "model-genetic"],
        )
        assert fresh.model is not None
        assert {s.strategy for s in result.standings} == {
            "random", "model-genetic",
        }
