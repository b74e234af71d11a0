"""Golden pins for the TINY-scale paper-protocol report.

Every figure and table of the protocol report is fingerprinted (a hash
of its rendered text) and pinned to the committed fixture
``tests/golden/tiny_protocol_golden.json``, alongside the protocol and
fold-store fingerprints.  Any refactor of the pipeline, oracle, fold
store, predictor variants, or renderers that shifts a single paper
number — or a single rendered character — fails here, even when every
behavioural test still passes.

If a change is *intentional*, regenerate the fixture and commit the diff::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.api import Session

    report = Session("tiny", use_disk_cache=False).protocol.run().report
    golden = json.load(open("tests/golden/tiny_protocol_golden.json"))
    golden.update(
        protocol_fingerprint=report.payload["fingerprints"]["protocol"],
        fold_fingerprint=report.payload["fingerprints"]["folds"],
        report_fingerprint=report.fingerprint,
        artifacts=report.artifact_fingerprints,
    )
    json.dump(golden, open("tests/golden/tiny_protocol_golden.json", "w"), indent=2)
    EOF
"""

import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny_protocol_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenProtocol:
    def test_every_artifact_fingerprint_pinned(self, tiny_protocol, golden):
        report = tiny_protocol.report
        assert set(report.artifact_fingerprints) == set(golden["artifacts"])
        mismatched = {
            name: (fingerprint, golden["artifacts"][name])
            for name, fingerprint in report.artifact_fingerprints.items()
            if fingerprint != golden["artifacts"][name]
        }
        assert not mismatched, (
            f"paper artifacts drifted from the golden pins: {mismatched} — "
            "if intentional, regenerate the fixture (see module docstring)"
        )

    def test_protocol_and_fold_fingerprints_pinned(self, tiny_protocol, golden):
        payload = tiny_protocol.report.payload
        assert payload["fingerprints"]["protocol"] == golden["protocol_fingerprint"]
        assert payload["fingerprints"]["folds"] == golden["fold_fingerprint"]

    def test_whole_report_fingerprint_pinned(self, tiny_protocol, golden):
        assert tiny_protocol.report.fingerprint == golden["report_fingerprint"]

    def test_headline_consistent_with_dataset_golden(self, tiny_protocol):
        """The protocol's headline must agree with the dataset-level
        golden fixture: two pins, one truth."""
        dataset_golden = json.loads(
            (Path(__file__).parent / "golden" / "tiny_golden.json").read_text()
        )
        headline = tiny_protocol.report.payload["headline"]
        assert headline["mean_best_speedup"] == pytest.approx(
            dataset_golden["headline_mean_best_speedup"], rel=1e-12
        )
        assert headline["mean_model_speedup"] == pytest.approx(
            dataset_golden["headline_mean_model_speedup"], rel=1e-12
        )

    def test_golden_fixture_is_sane(self, golden):
        assert golden["scale"] == "tiny"
        assert len(golden["artifacts"]) >= 17
        for name, fingerprint in golden["artifacts"].items():
            assert len(fingerprint) == 16, name
