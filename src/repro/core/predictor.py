"""The predictive distribution across programs and microarchitectures
(§3.3.2) and its deployment interface (§3.4).

Training memorises one IID distribution g(y|X) per training pair together
with the pair's feature vector x = (c, d).  Prediction for an unseen pair
forms q(y|x*) as the softmax-weighted convex combination of the K = 7
nearest training distributions (eq. 6, β = 1, Euclidean distance over
z-normalised features) and returns its mode (eq. 1).

Leave-one-out evaluation excludes every training pair sharing the test
pair's program *or* machine at query time (§5.1.1), so the model never
consults data from the program or microarchitecture it is predicting for.

Predictions run through the batched ranking kernel of
:mod:`repro.core.vector`.  :func:`reference_predict_distribution` and
:func:`reference_neighbours` are the plain scalar loops it must match
float for float; only the equivalence tests and the benchmark gates call
them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.compiler.flags import DEFAULT_SPACE, FlagSetting, FlagSpace
from repro.core import vector as model_vector
from repro.core.distribution import IIDDistribution
from repro.core.features import FeatureNormaliser, feature_mask, feature_vector
from repro.core.training import TrainingSet
from repro.machine.params import MicroArch
from repro.sim.counters import PerfCounters

#: The paper's hyper-parameters (§3.3.2): K = 7 neighbours, β = 1, and the
#: top-5 % definition of "good" settings (footnote 1).
DEFAULT_K = 7
DEFAULT_BETA = 1.0
DEFAULT_QUANTILE = 0.05


@dataclass
class _TrainingPair:
    program: str
    machine: MicroArch
    features: np.ndarray  # normalised, masked
    distribution: IIDDistribution


class OptimisationPredictor:
    """The portable optimising compiler's model (Figure 2's centre box)."""

    def __init__(
        self,
        space: FlagSpace = DEFAULT_SPACE,
        k: int = DEFAULT_K,
        beta: float = DEFAULT_BETA,
        quantile: float = DEFAULT_QUANTILE,
        extended: bool = False,
        feature_mode: str = "both",
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1: {k}")
        self.space = space
        self.k = k
        self.beta = beta
        self.quantile = quantile
        self.extended = extended
        self.feature_mode = feature_mode
        self._pairs: list[_TrainingPair] = []
        self._normaliser: FeatureNormaliser | None = None
        self._mask: np.ndarray | None = None
        self._tensors: model_vector.PredictorTensors | None = None

    # -------------------------------------------------------------- training
    def fit(self, training: TrainingSet) -> "OptimisationPredictor":
        """Fit per-pair distributions and memorise features (§3.3)."""
        self.extended = training.extended
        if self.feature_mode == "with_code":
            if training.code_features is None:
                raise ValueError(
                    "feature_mode='with_code' needs training code features"
                )
            base = feature_mask("both", self.extended)
            self._mask = np.concatenate(
                [base, np.ones(training.code_features.shape[1], dtype=bool)]
            )
        else:
            self._mask = feature_mask(self.feature_mode, self.extended)

        raw_features = []
        for p, _ in enumerate(training.program_names):
            for m, machine in enumerate(training.machines):
                counters = PerfCounters(*training.counters[p, m, :])
                vector = feature_vector(counters, machine, self.extended)
                if self.feature_mode == "with_code":
                    vector = np.concatenate(
                        [vector, training.code_features[p, :]]
                    )
                raw_features.append(vector)
        matrix = np.array(raw_features)
        self._normaliser = FeatureNormaliser.fit(matrix)
        normalised = self._normaliser.transform(matrix)

        self._pairs = []
        row = 0
        for p, name in enumerate(training.program_names):
            for m, machine in enumerate(training.machines):
                distribution = training.pair_distribution(p, m, self.quantile)
                self._pairs.append(
                    _TrainingPair(
                        program=name,
                        machine=machine,
                        features=normalised[row][self._mask],
                        distribution=distribution,
                    )
                )
                row += 1
        self._refresh_tensors()
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._pairs)

    def _refresh_tensors(
        self, arrays: tuple[np.ndarray, np.ndarray] | None = None
    ) -> None:
        """Stack the pairs into the ranking kernel's tensors.

        ``arrays`` are precomputed ``(features, theta)`` stacks (the
        registry's promote-time sidecar), used when their shapes still
        fit the pairs; otherwise the tensors are rebuilt from the pairs.
        """
        if not self._pairs:
            self._tensors = None
            return
        if arrays is not None:
            try:
                self._tensors = model_vector.PredictorTensors.from_pairs(
                    self._pairs, self.space, *arrays
                )
                return
            except ValueError:
                pass  # stale sidecar shapes: rebuild
        self._tensors = model_vector.PredictorTensors.from_pairs(
            self._pairs, self.space
        )

    # ----------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """A JSON-serialisable snapshot of the fitted model.

        Floats survive a JSON round trip exactly (Python serialises the
        shortest repr that reparses to the same value), so a model restored
        by :meth:`from_state` reproduces predictions bit-for-bit.
        """
        if not self.is_fitted:
            raise RuntimeError("cannot snapshot an unfitted predictor")
        return {
            "params": {
                "k": self.k,
                "beta": self.beta,
                "quantile": self.quantile,
                "extended": self.extended,
                "feature_mode": self.feature_mode,
            },
            "space_names": list(self.space.names),
            "mask": [bool(flag) for flag in self._mask],
            "normaliser": {
                "mean": self._normaliser.mean.tolist(),
                "std": self._normaliser.std.tolist(),
            },
            "pairs": [
                {
                    "program": pair.program,
                    "machine": dataclasses.asdict(pair.machine),
                    "features": pair.features.tolist(),
                    "theta": [probs.tolist() for probs in pair.distribution.theta],
                }
                for pair in self._pairs
            ],
        }

    @staticmethod
    def from_state(
        state: dict,
        space: FlagSpace = DEFAULT_SPACE,
        arrays: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "OptimisationPredictor":
        """Rebuild a fitted predictor from :meth:`get_state` output.

        ``arrays`` optionally supplies the ranking tensors' precomputed
        ``(features, theta)`` stacks, so the tensors are stacked once.
        """
        if list(state["space_names"]) != list(space.names):
            raise ValueError(
                "saved model's flag space does not match this build"
            )
        params = state["params"]
        predictor = OptimisationPredictor(
            space=space,
            k=int(params["k"]),
            beta=float(params["beta"]),
            quantile=float(params["quantile"]),
            extended=bool(params["extended"]),
            feature_mode=str(params["feature_mode"]),
        )
        predictor._mask = np.array(state["mask"], dtype=bool)
        predictor._normaliser = FeatureNormaliser(
            mean=np.array(state["normaliser"]["mean"], dtype=float),
            std=np.array(state["normaliser"]["std"], dtype=float),
        )
        predictor._pairs = [
            _TrainingPair(
                program=entry["program"],
                machine=MicroArch(**entry["machine"]),
                features=np.array(entry["features"], dtype=float),
                distribution=IIDDistribution(
                    space=space,
                    theta=[
                        np.array(probs, dtype=float) for probs in entry["theta"]
                    ],
                ),
            )
            for entry in state["pairs"]
        ]
        predictor._refresh_tensors(arrays)
        return predictor

    def _query_vector(
        self,
        counters: PerfCounters,
        machine: MicroArch,
        code_features,
    ) -> np.ndarray:
        vector = feature_vector(counters, machine, self.extended)
        if self.feature_mode == "with_code":
            if code_features is None:
                raise ValueError(
                    "feature_mode='with_code' needs the test program's code "
                    "features (from its -O3 binary)"
                )
            vector = np.concatenate([vector, np.asarray(code_features, float)])
        return self._normaliser.transform_one(vector)[self._mask]

    def _candidate_indices(
        self,
        exclude_program: str | None,
        exclude_machine: MicroArch | None,
    ) -> np.ndarray:
        """Indices of every training row a prediction may consult, in
        ascending order.

        The single gate between the memorised training rows and any
        prediction — :meth:`predict_distribution`, its batched forms and
        :meth:`neighbours` all select through it, exactly once per query,
        so instrumenting (or auditing) this method observes *all*
        training data the model can possibly touch.  The leave-one-out
        leakage guard relies on that.
        """
        mask = self._tensors.candidate_mask(exclude_program, exclude_machine)
        return np.nonzero(mask)[0]

    # ------------------------------------------------------------ prediction
    def predict_distribution(
        self,
        counters: PerfCounters,
        machine: MicroArch,
        exclude_program: str | None = None,
        exclude_machine: MicroArch | None = None,
        code_features=None,
    ) -> IIDDistribution:
        """q(y|x*): the weighted mixture of the K nearest pairs (eq. 6).

        A one-row batch through the ranking kernel, bit-identical to
        :func:`reference_predict_distribution` (proven by
        ``tests/test_model_vector.py``).
        """
        if not self.is_fitted:
            raise RuntimeError("predictor is not fitted")
        return self._predict_distribution_batch(
            [counters],
            [machine],
            [exclude_program],
            [exclude_machine],
            [code_features],
        )[0]

    def predict(
        self,
        counters: PerfCounters,
        machine: MicroArch,
        exclude_program: str | None = None,
        exclude_machine: MicroArch | None = None,
        code_features=None,
    ) -> FlagSetting:
        """y* = argmax_y q(y|x*) (eq. 1)."""
        distribution = self.predict_distribution(
            counters, machine, exclude_program, exclude_machine, code_features
        )
        return distribution.mode()

    # -------------------------------------------------------- batched kernel
    def _query_matrix(self, counters_list, machines, code_features_list):
        rows = []
        for counters, machine, code_features in zip(
            counters_list, machines, code_features_list
        ):
            vector = feature_vector(counters, machine, self.extended)
            if self.feature_mode == "with_code":
                if code_features is None:
                    raise ValueError(
                        "feature_mode='with_code' needs the test program's "
                        "code features (from its -O3 binary)"
                    )
                vector = np.concatenate(
                    [vector, np.asarray(code_features, float)]
                )
            rows.append(vector)
        matrix = np.array(rows)
        return self._normaliser.transform(matrix)[:, self._mask]

    def _predict_distribution_batch(
        self, counters_list, machines, exclude_programs, exclude_machines,
        code_features_list,
    ) -> list[IIDDistribution]:
        queries = self._query_matrix(counters_list, machines, code_features_list)
        indices = [
            self._candidate_indices(exclude_program, exclude_machine)
            for exclude_program, exclude_machine in zip(
                exclude_programs, exclude_machines
            )
        ]
        return model_vector.predict_distributions(
            self._tensors,
            queries,
            indices,
            k=self.k,
            beta=self.beta,
            space=self.space,
        )

    def _normalise_batch_args(self, counters_list, machines, exclude_programs,
                              exclude_machines, code_features_list):
        batch = len(machines)
        if len(counters_list) != batch:
            raise ValueError("counters and machines must have equal length")

        def expand(values, label):
            if values is None:
                return [None] * batch
            values = list(values)
            if len(values) != batch:
                raise ValueError(f"{label} must match the batch length")
            return values

        return (
            list(counters_list),
            list(machines),
            expand(exclude_programs, "exclude_programs"),
            expand(exclude_machines, "exclude_machines"),
            expand(code_features_list, "code_features"),
        )

    def predict_distribution_many(
        self,
        counters_list,
        machines,
        exclude_programs=None,
        exclude_machines=None,
        code_features=None,
    ) -> list[IIDDistribution]:
        """Batched :meth:`predict_distribution` — one kernel pass for the
        whole batch, bit-identical to the scalar loop.

        Exclusion/code-feature lists are per-query and optional (``None``
        broadcasts ``None`` to every query).
        """
        if not self.is_fitted:
            raise RuntimeError("predictor is not fitted")
        args = self._normalise_batch_args(
            counters_list, machines, exclude_programs, exclude_machines,
            code_features,
        )
        if not args[1]:
            return []
        return self._predict_distribution_batch(*args)

    def predict_many(
        self,
        counters_list,
        machines,
        exclude_programs=None,
        exclude_machines=None,
        code_features=None,
    ) -> list[FlagSetting]:
        """Batched :meth:`predict` (eq. 1 over eq. 6, one kernel pass)."""
        return [
            distribution.mode()
            for distribution in self.predict_distribution_many(
                counters_list, machines, exclude_programs, exclude_machines,
                code_features,
            )
        ]

    def rank_many(
        self,
        counters_list,
        machines,
        top: int,
        exclude_programs=None,
        exclude_machines=None,
        code_features=None,
    ) -> list[list[tuple[FlagSetting, float]]]:
        """Batched top-``top`` rankings: one kernel pass for the mixture
        distributions, then the deterministic best-first enumeration."""
        return [
            distribution.top_settings(top)
            for distribution in self.predict_distribution_many(
                counters_list, machines, exclude_programs, exclude_machines,
                code_features,
            )
        ]

    def neighbours(
        self,
        counters: PerfCounters,
        machine: MicroArch,
        exclude_program: str | None = None,
        exclude_machine: MicroArch | None = None,
        code_features=None,
    ) -> list[tuple[str, MicroArch, float]]:
        """The K nearest training pairs and distances (for analysis).

        Guards match :meth:`predict_distribution`: an unfitted model and
        an exclusion set that empties the candidates both raise.
        """
        if not self.is_fitted:
            raise RuntimeError("predictor is not fitted")
        query = self._query_vector(counters, machine, code_features)
        indices = self._candidate_indices(exclude_program, exclude_machine)
        if indices.size == 0:
            raise RuntimeError("no training pairs left after exclusions")
        top, top_distances = model_vector.nearest_neighbours(
            self._tensors, query, indices, self.k
        )
        return [
            (
                self._pairs[int(index)].program,
                self._pairs[int(index)].machine,
                float(distance),
            )
            for index, distance in zip(top, top_distances)
        ]


# --------------------------------------------------------- scalar references
def _reference_nearest(
    predictor: OptimisationPredictor,
    counters: PerfCounters,
    machine: MicroArch,
    exclude_program: str | None,
    exclude_machine: MicroArch | None,
    code_features,
) -> tuple[list[_TrainingPair], np.ndarray]:
    """The K nearest pairs and their distances, one pair at a time.

    Exclusions compare the pair objects themselves, where the kernel
    compares dense ids.
    """
    if not predictor.is_fitted:
        raise RuntimeError("predictor is not fitted")
    query = predictor._query_vector(counters, machine, code_features)
    candidates = [
        pair
        for pair in predictor._pairs
        if (exclude_program is None or pair.program != exclude_program)
        and (exclude_machine is None or pair.machine != exclude_machine)
    ]
    if not candidates:
        raise RuntimeError("no training pairs left after exclusions")
    distances = np.array(
        [float(np.linalg.norm(pair.features - query)) for pair in candidates]
    )
    order = np.argsort(distances, kind="stable")[: predictor.k]
    return [candidates[int(index)] for index in order], distances[order]


def reference_predict_distribution(
    predictor: OptimisationPredictor,
    counters: PerfCounters,
    machine: MicroArch,
    exclude_program: str | None = None,
    exclude_machine: MicroArch | None = None,
    code_features=None,
) -> IIDDistribution:
    """Scalar reference for :meth:`OptimisationPredictor.predict_distribution`."""
    nearest, distances = _reference_nearest(
        predictor, counters, machine, exclude_program, exclude_machine,
        code_features,
    )
    # eq. 6: w_k = exp(-β d_k) / Σ exp(-β d_j), computed stably.
    logits = -predictor.beta * (distances - distances.min())
    weights = np.exp(logits)
    weights /= weights.sum()
    return IIDDistribution.mix(
        [pair.distribution for pair in nearest], list(weights)
    )


def reference_neighbours(
    predictor: OptimisationPredictor,
    counters: PerfCounters,
    machine: MicroArch,
    exclude_program: str | None = None,
    exclude_machine: MicroArch | None = None,
    code_features=None,
) -> list[tuple[str, MicroArch, float]]:
    """Scalar reference for :meth:`OptimisationPredictor.neighbours`."""
    nearest, distances = _reference_nearest(
        predictor, counters, machine, exclude_program, exclude_machine,
        code_features,
    )
    return [
        (pair.program, pair.machine, float(distance))
        for pair, distance in zip(nearest, distances)
    ]
