"""The resumable paper-protocol pipeline: store, oracle, pipeline, report.

The load-bearing guarantees, each tested directly:

* the fold store is append-only, digest-verified, and resumable;
* the oracle answers grid settings from the store-assembled matrix with
  zero simulation and memoises the out-of-grid fallback;
* `protocol.run` output is bit-identical across serial/thread/process
  executors and across a kill-and-resume cycle, with zero re-simulation
  of folds already checkpointed (the simulation-call counter);
* the report renderer subsets artifacts and refuses missing variants.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.api import Session
from repro.evalrun import (
    EvaluationPipeline,
    FoldKey,
    FoldRecord,
    FoldRow,
    FoldStore,
    FoldStoreError,
    RuntimeOracle,
    fold_fingerprint,
    protocol_fingerprint,
    protocol_variants,
    render_report,
    resolve_artifacts,
    variants_for_artifacts,
)
from repro.evalrun.pipeline import assemble_protocol


def _variants(tiny_data):
    return protocol_variants(
        with_code=tiny_data.training.code_features is not None
    )


def _store(tiny_data, root=None):
    variants = _variants(tiny_data)
    return FoldStore(
        protocol_fingerprint(tiny_data.training, variants),
        variants,
        list(tiny_data.training.program_names),
        root=root,
    )


def _pipeline(tiny_data, store, **kwargs):
    return EvaluationPipeline(
        tiny_data.training, tiny_data.programs, store, **kwargs
    )


def _record(variant="base", program="qsort", runtime=1.5):
    return FoldRecord(
        key=FoldKey(variant, program),
        rows=(
            FoldRow(
                machine=0,
                setting=tuple([0] * 39),
                predicted_runtime=runtime,
                o3_runtime=2.0,
                best_runtime=1.0,
            ),
        ),
    )


class TestFoldStore:
    def test_roundtrip_on_disk(self, tiny_data, tmp_path):
        store = _store(tiny_data, root=tmp_path / "proto")
        record = _record()
        store.write_fold(record)
        assert store.has_fold(record.key)
        loaded = store.read_fold(record.key)
        assert loaded == record
        assert fold_fingerprint(loaded) == fold_fingerprint(record)

    def test_append_only_first_write_wins(self, tiny_data, tmp_path):
        store = _store(tiny_data, root=tmp_path / "proto")
        first = _record(runtime=1.5)
        second = _record(runtime=9.9)
        store.write_fold(first)
        store.write_fold(second)  # silently ignored
        assert store.read_fold(first.key).rows[0].predicted_runtime == 1.5

    def test_corrupt_shard_is_treated_as_pending(self, tiny_data, tmp_path):
        store = _store(tiny_data, root=tmp_path / "proto")
        record = _record()
        store.write_fold(record)
        path = store._fold_path(record.key)
        shard = json.loads(path.read_text())
        shard["record"]["rows"][0]["predicted_runtime"] = 123.0
        path.write_text(json.dumps(shard))
        fresh = _store(tiny_data, root=tmp_path / "proto")
        assert not fresh.has_fold(record.key)
        assert record.key in fresh.pending_keys()
        with pytest.raises(FoldStoreError, match="not in store|corrupt"):
            fresh.read_fold(record.key)

    def test_schema_malformed_shard_is_treated_as_pending(
        self, tiny_data, tmp_path
    ):
        """A shard that parses as JSON but has the wrong shape (foreign
        file, partial hand edit) must read as pending, not crash resume."""
        store = _store(tiny_data, root=tmp_path / "proto")
        record = _record()
        store.write_fold(record)
        path = store._fold_path(record.key)
        for malformed in (
            '{"not": "a shard"}',
            '{"protocol_fingerprint": "%s", "record": {"variant": "base"}}'
            % store.protocol_fingerprint,
            "[]",
        ):
            path.write_text(malformed)
            fresh = _store(tiny_data, root=tmp_path / "proto")
            assert not fresh.has_fold(record.key)
            assert record.key in fresh.pending_keys()

    def test_reopen_rejects_different_protocol(self, tiny_data, tmp_path):
        _store(tiny_data, root=tmp_path / "proto")
        variants = _variants(tiny_data)
        with pytest.raises(FoldStoreError, match="different protocol"):
            FoldStore(
                "0" * 16,
                variants,
                list(tiny_data.training.program_names),
                root=tmp_path / "proto",
            )

    def test_foreign_record_rejected(self, tiny_data):
        store = _store(tiny_data)
        with pytest.raises(FoldStoreError, match="not in this protocol grid"):
            store.write_fold(_record(variant="no-such-variant"))

    def test_fold_keys_subset_and_status(self, tiny_data):
        store = _store(tiny_data)
        base_keys = list(store.fold_keys(["base"]))
        assert [key.variant for key in base_keys] == ["base"] * len(
            store.programs
        )
        status = store.status()
        assert status.total_folds == store.n_folds
        assert status.completed_folds == 0
        assert not status.complete
        assert "pending" in status.render()


class TestRuntimeOracle:
    def test_grid_setting_is_a_store_hit(self, tiny_data):
        oracle = RuntimeOracle(tiny_data.training, tiny_data.programs)
        program = tiny_data.training.program_names[1]
        machine = tiny_data.training.machines[3]
        setting = tiny_data.training.settings[7]
        expected = float(tiny_data.training.runtimes[1, 7, 3])
        assert oracle.runtime(program, setting, machine) == expected
        assert oracle.store_hits == 1
        assert oracle.simulation_calls == 0

    def test_out_of_grid_setting_simulates_once(self, tiny_data):
        from repro.compiler.flags import o3_setting

        oracle = RuntimeOracle(tiny_data.training, tiny_data.programs)
        program = tiny_data.training.program_names[0]
        machine = tiny_data.training.machines[0]
        synthetic = o3_setting().with_values(
            funroll_loops=True, param_max_unroll_times=16
        )
        first = oracle.runtime(program, synthetic, machine)
        second = oracle.runtime(program, synthetic, machine)
        assert first == second
        assert oracle.simulation_calls == 1  # memoised, not re-simulated

    def test_unknown_program_and_machine_rejected(self, tiny_data):
        from repro.evalrun.oracle import OracleError
        from repro.machine.xscale import xscale

        oracle = RuntimeOracle(tiny_data.training, tiny_data.programs)
        with pytest.raises(OracleError, match="unknown program"):
            oracle.o3_runtime("nonesuch", tiny_data.training.machines[0])
        with pytest.raises(OracleError, match="not in the training grid"):
            oracle.o3_runtime(tiny_data.training.program_names[0], xscale())


#: A small artifact subset: base + the K sweep — 6 variants × 6 programs.
SUBSET = "headline,ablate-k"


class TestPipelineDeterminism:
    def _report_bytes(self, tiny_data, executor, jobs):
        store = _store(tiny_data)
        pipeline = _pipeline(tiny_data, store, jobs=jobs, executor=executor)
        keys = variants_for_artifacts(resolve_artifacts(SUBSET))
        pipeline.run(variants=keys)
        protocol = pipeline.assemble(variants=keys)
        report = render_report(tiny_data, protocol, only=SUBSET)
        return protocol.fold_fingerprint, report.markdown, report.json_text()

    def test_bit_identical_across_executors(self, tiny_data):
        serial = self._report_bytes(tiny_data, "serial", 1)
        thread = self._report_bytes(tiny_data, "thread", 4)
        process = self._report_bytes(tiny_data, "process", 2)
        assert serial == thread == process

    def test_kill_and_resume_is_bit_identical_with_zero_resim(self, tiny_data):
        keys = variants_for_artifacts(resolve_artifacts(SUBSET))
        single_shot = self._report_bytes(tiny_data, "serial", 1)

        # "Kill" after 4 checkpointed folds, then resume with a fresh
        # pipeline (fresh oracle, fresh predictors — as after a real kill).
        store = _store(tiny_data)
        first = _pipeline(tiny_data, store).run(variants=keys, max_folds=4)
        assert first.folds_computed == 4
        resumed = _pipeline(tiny_data, store)
        stats = resumed.run(variants=keys)
        assert stats.folds_skipped == 4  # checkpointed folds never rerun
        protocol = resumed.assemble(variants=keys)
        report = render_report(tiny_data, protocol, only=SUBSET)
        assert (
            protocol.fold_fingerprint,
            report.markdown,
            report.json_text(),
        ) == single_shot

        # A second resume finds everything checkpointed: zero folds,
        # zero simulations — the re-simulation counter stays at rest.
        final = _pipeline(tiny_data, store)
        stats = final.run(variants=keys)
        assert stats.folds_computed == 0
        assert stats.simulation_calls == 0
        assert stats.store_hits == 0

    def test_resume_never_resimulates_checkpointed_folds(
        self, tiny_data, monkeypatch
    ):
        """Belt and braces for the counter: patch the simulator itself
        and assert a fully checkpointed store triggers no calls."""
        store = _store(tiny_data)
        keys = variants_for_artifacts(resolve_artifacts(SUBSET))
        _pipeline(tiny_data, store).run(variants=keys)

        import repro.evalrun.oracle as oracle_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("checkpointed fold was re-simulated")

        monkeypatch.setattr(oracle_module, "simulate_analytic", boom)
        stats = _pipeline(tiny_data, store).run(variants=keys)
        assert stats.folds_computed == 0
        protocol = assemble_protocol(store, tiny_data.training, variants=keys)
        assert render_report(tiny_data, protocol, only=SUBSET).markdown

    def test_store_hits_feed_joint_variant_from_grid(self, tiny_data):
        """The joint-vote variant predicts observed grid settings, so its
        folds are priced from the store without a single simulation."""
        store = _store(tiny_data)
        pipeline = _pipeline(tiny_data, store)
        stats = pipeline.run(variants=["joint"])
        assert stats.folds_computed == len(store.programs)
        assert stats.store_hits > 0
        assert stats.simulation_calls == 0


class TestRunProtocolSession:
    def test_session_protocol_end_to_end(self, tiny_protocol):
        report = tiny_protocol.report
        assert tiny_protocol.complete
        assert report.artifacts == list(resolve_artifacts(None))
        assert "# Paper protocol report" in report.markdown
        payload = json.loads(report.json_text())
        assert payload["scale"] == "tiny"
        assert set(payload["artifacts"]) == set(report.artifacts)
        assert payload["headline"]["mean_best_speedup"] >= 1.0

    def test_figures_consume_pipeline_output(self, tiny_data, tiny_protocol):
        """After protocol.run, run_crossval serves the checkpointed base
        variant — figures and tables consume pipeline output."""
        from repro.experiments.figures import run_crossval

        assert run_crossval(tiny_data) is tiny_protocol.report.protocol.base

    def test_max_folds_cap_returns_incomplete(self, tiny_data):
        session = Session("tiny", use_disk_cache=False)
        store = session.protocol.store(tiny_data)
        outcome = session.protocol.run(
            only=SUBSET, max_folds=2, store=store
        )
        assert not outcome.complete
        assert outcome.report is None
        assert outcome.stats.folds_computed == 2
        assert outcome.status.completed_folds == 2

    def test_only_subset_runs_no_extra_folds(self, tiny_data):
        session = Session("tiny", use_disk_cache=False)
        store = session.protocol.store(tiny_data)
        outcome = session.protocol.run(only="fig4,table2", store=store)
        assert outcome.complete
        # fig4/table2 need no folds at all: nothing computed, nothing
        # simulated, and the report still renders.
        assert outcome.stats.folds_computed == 0
        assert outcome.stats.simulation_calls == 0
        assert outcome.report.artifacts == ["table2", "fig4"]


class TestReportRenderer:
    def test_resolve_artifacts_aliases_and_order(self):
        assert resolve_artifacts("figure5,table2") == ["table2", "fig5"]
        assert resolve_artifacts(["HEADLINE"]) == ["headline"]
        with pytest.raises(ValueError, match="unknown artifact"):
            resolve_artifacts("fig99")

    def test_variants_for_artifacts(self):
        assert variants_for_artifacts(["fig4", "table2"]) == []
        knn = variants_for_artifacts(["ablate-k"])
        assert knn[0] == "base"
        assert set(knn) == {"base", "k-1", "k-3", "k-5", "k-11", "k-15"}

    def test_report_refuses_missing_variants(self, tiny_data):
        store = _store(tiny_data)
        pipeline = _pipeline(tiny_data, store)
        pipeline.run(variants=["base"])
        protocol = pipeline.assemble(variants=["base"])
        with pytest.raises(ValueError, match="needs protocol variants"):
            render_report(tiny_data, protocol, only="ablate-k")
        # While the base-only artifacts render fine.
        report = render_report(tiny_data, protocol, only="fig6,headline")
        assert report.artifacts == ["fig6", "headline"]

    def test_ablation_tables_match_direct_sweeps(self, tiny_data, tiny_protocol):
        """The report's ablation tables, assembled from checkpointed
        folds, carry exactly the numbers of the in-process sweeps."""
        from repro.experiments.ablations import knn_k_sweep

        direct = knn_k_sweep(tiny_data)
        rendered = tiny_protocol.report.payload["artifacts"]["ablate-k"]["render"]
        assert rendered == direct.render()


class TestReportCli:
    def test_report_cap_then_resume_matches_single_shot(
        self, tiny_data, tmp_path, capsys
    ):
        cache_a, cache_b = str(tmp_path / "a"), str(tmp_path / "b")
        out_a, out_b = tmp_path / "outA", tmp_path / "outB"
        args = ["report", "--scale", "tiny", "--quiet", "--only", SUBSET]
        assert cli.main(args + ["--cache-dir", cache_a, "--out", str(out_a)]) == 0
        # Killed run: capped, then resumed in a separate cache.
        assert (
            cli.main(
                args
                + ["--cache-dir", cache_b, "--out", str(out_b), "--max-folds", "3"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "resume with:" in output
        assert not (out_b / "report-tiny.md").exists()
        assert (
            cli.main(
                args + ["--cache-dir", cache_b, "--out", str(out_b), "--resume"]
            )
            == 0
        )
        assert (out_a / "report-tiny.md").read_bytes() == (
            out_b / "report-tiny.md"
        ).read_bytes()
        assert (out_a / "report-tiny.json").read_bytes() == (
            out_b / "report-tiny.json"
        ).read_bytes()

    def test_completed_only_run_rerenders_without_resume(
        self, tiny_data, tmp_path
    ):
        """A finished --only selection is complete for what it needs:
        re-invoking the identical command re-renders without --resume,
        and widening the selection demands --resume (its folds are a
        partially computed superset)."""
        cache = str(tmp_path / "cache")
        args = ["report", "--scale", "tiny", "--quiet", "--only", "headline",
                "--cache-dir", cache, "--out", str(tmp_path)]
        assert cli.main(args) == 0
        assert cli.main(args) == 0  # complete for 'headline': no --resume
        with pytest.raises(SystemExit):  # wider selection: partial now
            cli.main(
                ["report", "--scale", "tiny", "--quiet", "--only", SUBSET,
                 "--cache-dir", cache, "--out", str(tmp_path)]
            )

    def test_incomplete_hint_echoes_selection_flags(self, tiny_data, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert (
            cli.main(
                ["report", "--scale", "tiny", "--quiet", "--only", SUBSET,
                 "--cache-dir", cache, "--out", str(tmp_path / "out"),
                 "--max-folds", "2", "--jobs", "2", "--executor", "thread"]
            )
            == 0
        )
        hint = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("resume with:")
        ][0]
        for fragment in (f"--only {SUBSET}", "--jobs 2", "--executor thread",
                         f"--cache-dir {cache}", "--out"):
            assert fragment in hint

    def test_report_refuses_partial_store_without_resume(
        self, tiny_data, tmp_path
    ):
        cache = str(tmp_path / "cache")
        assert (
            cli.main(
                ["report", "--scale", "tiny", "--quiet", "--only", SUBSET,
                 "--cache-dir", cache, "--out", str(tmp_path), "--max-folds", "2"]
            )
            == 0
        )
        with pytest.raises(SystemExit):
            cli.main(
                ["report", "--scale", "tiny", "--quiet", "--only", SUBSET,
                 "--cache-dir", cache, "--out", str(tmp_path)]
            )

    def test_report_flags_rejected_outside_report(self, tmp_path):
        for flags in (["--max-folds", "2"], ["--only", "fig4"], ["--out", "x"]):
            with pytest.raises(SystemExit):
                cli.main(["fig3", "--quiet", *flags])
        with pytest.raises(SystemExit):
            cli.main(["report", "--scale", "tiny", "--max-folds", "0",
                      "--cache-dir", str(tmp_path)])
