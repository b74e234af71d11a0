"""Micro-benchmarks: ranked-prediction throughput, scalar vs vector.

The deployment hot path (§3.4) is "profile once, rank the flag space from
memory": every ``/predict`` runs the KNN/softmax/mixture math plus the
best-first top-N enumeration.  This harness times whole batches of ranked
predictions through the scalar reference
(:func:`~repro.core.predictor.reference_predict_distribution`) and the
batched ranking kernel (:mod:`repro.core.vector`) over the same fitted
model and certifies the two are byte-identical under canonical JSON
before reporting a speedup.

Two modes:

* ``pytest benchmarks/bench_predict.py --benchmark-only`` — the
  interactive pytest-benchmark suite;
* ``PYTHONPATH=src python benchmarks/bench_predict.py [--smoke]
  [--out BENCH_predict.json] [--min-speedup X]`` — emits the
  machine-readable ``BENCH_predict.json`` artifact (ranked
  predictions/sec both ways, the speedup, and the equivalence verdict)
  that CI uploads and the README's performance table cites.
"""

from repro.api.facets import ranked_from_distribution, ranked_prediction_many
from repro.core.predictor import (
    OptimisationPredictor,
    reference_predict_distribution,
)
from repro.experiments.config import PRESETS
from repro.experiments.dataset import load_or_build
from repro.service.service import canonical_json
from repro.sim.counters import PerfCounters


def _fitted_model(scale_name: str):
    """A predictor fitted on a scale's training set."""
    data = load_or_build(PRESETS[scale_name], use_disk_cache=False)
    training = data.training
    model = OptimisationPredictor(extended=training.extended).fit(training)
    return training, model


def _reference_rank(model, query):
    """One ranked prediction through the scalar reference."""
    distribution = reference_predict_distribution(
        model, query["counters"], query["machine"]
    )
    return ranked_from_distribution(
        distribution, query["machine"], query["top"], query["program"]
    )


def _query_batch(training, repeats: int, top: int):
    """The full training grid as ranked-prediction queries, replicated."""
    queries = []
    for _ in range(repeats):
        for p, name in enumerate(training.program_names):
            for m, machine in enumerate(training.machines):
                queries.append(
                    {
                        "counters": PerfCounters(*training.counters[p, m, :]),
                        "machine": machine,
                        "top": top,
                        "program": name,
                    }
                )
    return queries


def test_rank_scalar(benchmark):
    training, model = _fitted_model("tiny")
    queries = _query_batch(training, repeats=1, top=3)
    benchmark(lambda: [_reference_rank(model, q) for q in queries])


def test_rank_vector(benchmark):
    training, model = _fitted_model("tiny")
    queries = _query_batch(training, repeats=1, top=3)
    benchmark(lambda: ranked_prediction_many(model, queries))


# --------------------------------------------------------------- artifact
def emit_artifact(out: str, smoke: bool) -> dict:
    """Time scalar vs batched ranking and write ``BENCH_predict.json``.

    Smoke mode uses the tiny grid (36 training pairs); the full run uses
    the quick grid (120 pairs) with more replication — both report ranked
    predictions per second.
    """
    from perfjson import emit, measure, throughput

    scale_name, repeats, top = ("tiny", 8, 3) if smoke else ("quick", 10, 5)
    training, model = _fitted_model(scale_name)
    queries = _query_batch(training, repeats, top)

    def scalar_rank():
        for query in queries:
            _reference_rank(model, query)

    def vector_rank():
        ranked_prediction_many(model, queries)

    scalar_timing = throughput(measure(scalar_rank, rounds=3), len(queries))
    vector_timing = throughput(measure(vector_rank, rounds=3), len(queries))

    # The evalrun path ranks nothing — predict() only takes the mode — so
    # time it separately: this is where the KNN kernel dominates.
    counters_list = [query["counters"] for query in queries]
    machines = [query["machine"] for query in queries]

    def scalar_mode():
        for counters, machine in zip(counters_list, machines):
            reference_predict_distribution(model, counters, machine).mode()

    def vector_mode():
        model.predict_many(counters_list, machines)

    mode_scalar_timing = throughput(
        measure(scalar_mode, rounds=3), len(queries)
    )
    mode_vector_timing = throughput(
        measure(vector_mode, rounds=3), len(queries)
    )

    # The artifact also certifies equivalence — byte-identity of the
    # ranked payloads under canonical JSON, the service's wire contract.
    reference = [
        canonical_json(_reference_rank(model, query).payload())
        for query in queries
    ]
    candidate = [
        canonical_json(prediction.payload())
        for prediction in ranked_prediction_many(model, queries)
    ]
    if reference != candidate:
        raise SystemExit("ranking kernel drifted from the scalar reference")

    payload = {
        "benchmark": "predict",
        "smoke": smoke,
        "scale": scale_name,
        "queries": len(queries),
        "top": top,
        "scalar": scalar_timing,
        "vector": vector_timing,
        "speedup": scalar_timing["best_seconds"] / vector_timing["best_seconds"],
        "mode_scalar": mode_scalar_timing,
        "mode_vector": mode_vector_timing,
        "mode_speedup": (
            mode_scalar_timing["best_seconds"]
            / mode_vector_timing["best_seconds"]
        ),
        "exact_match": True,
    }
    emit(out, payload)
    return payload


if __name__ == "__main__":
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_predict.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the vector/scalar speedup lands below this",
    )
    args = parser.parse_args()
    result = emit_artifact(args.out, args.smoke)
    if args.min_speedup is not None and result["speedup"] < args.min_speedup:
        raise SystemExit(
            f"speedup {result['speedup']:.1f}x below floor {args.min_speedup}x"
        )
