"""Multi-scenario model registry: many (dataset, model) pairs, one process.

The paper's whole pitch is *transferability* — one architecture serving
many platforms and catalogues — and NineRec-style evaluation makes that
a many-scenario problem. The registry makes it a *serving* concern:
each scenario pairs a dataset with a model (PMMRec variant or any
baseline), optionally warm-started from a checkpoint, and owns a
catalogue index + recommender so one process can route requests across
every scenario it hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..data import build_dataset
from .recommender import Recommender

__all__ = ["ScenarioSpec", "Scenario", "ModelRegistry", "build_model"]


def build_model(name: str, dataset, seed: int = 0):
    """Instantiate any method by its CLI name for ``dataset``.

    ``pmmrec*`` names (modalities and ablation variants) resolve through
    the shared :func:`repro.core.make_pmmrec` factory; every other name
    resolves through :func:`repro.baselines.make_baseline`.
    """
    if name.startswith("pmmrec"):
        from ..core import make_pmmrec
        return make_pmmrec(name, seed=seed)
    from ..baselines import make_baseline
    return make_baseline(name, dataset, seed=seed)


@dataclass(frozen=True)
class ScenarioSpec:
    """One serving scenario: ``dataset:model[:checkpoint]``."""

    dataset: str
    model: str
    checkpoint: str | None = None
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "ScenarioSpec":
        """Parse a CLI spec like ``kwai_food:sasrec[:path/to/ckpt.npz]``."""
        parts = text.strip().split(":", 2)
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise ValueError(
                f"scenario spec {text!r} must look like "
                "'dataset:model' or 'dataset:model:checkpoint'")
        checkpoint = parts[2] if len(parts) == 3 and parts[2] else None
        return cls(dataset=parts[0], model=parts[1], checkpoint=checkpoint,
                   seed=seed)

    @property
    def key(self) -> tuple[str, str]:
        return (self.dataset, self.model)


@dataclass
class Scenario:
    """A loaded scenario: data, model and its recommender."""

    spec: ScenarioSpec
    dataset: object
    model: object
    recommender: Recommender

    def describe(self) -> dict:
        """JSON-serializable summary for the ``/scenarios`` endpoint."""
        index = self.recommender.index
        return {"dataset": self.spec.dataset,
                "model": self.spec.model,
                "checkpoint": self.spec.checkpoint,
                "num_items": self.dataset.num_items,
                "num_users": self.dataset.num_users,
                "indexed": index is not None,
                "index_version": self.recommender.index_version,
                "index_nbytes": 0 if index is None else index.nbytes,
                "retrieval": self.recommender.describe_retrieval()}


class ModelRegistry:
    """Load checkpoints for many scenarios behind one routing surface."""

    def __init__(self, profile: str | None = None, dtype: str | None = "float32",
                 exclude_seen: bool = True, warm: bool = True,
                 retrieval: str = "exact", ann_params: dict | None = None,
                 min_ann_items: int | None = None):
        self.profile = profile
        self.dtype = dtype
        self.exclude_seen = exclude_seen
        self.warm = warm
        self.retrieval = retrieval
        self.ann_params = ann_params
        self.min_ann_items = min_ann_items
        self._scenarios: dict[tuple[str, str], Scenario] = {}

    # -- loading -------------------------------------------------------------

    def add(self, spec: ScenarioSpec | str, seed: int | None = None) -> Scenario:
        """Load one scenario (dataset + model + optional checkpoint).

        ``seed``, when given, overrides the spec's seed (and seeds specs
        parsed from strings). With ``warm`` (the default) the catalogue
        index is built eagerly so the first request doesn't pay the
        encode; otherwise it builds lazily. Re-adding an existing
        (dataset, model) key replaces it.
        """
        if isinstance(spec, str):
            spec = ScenarioSpec.parse(spec, seed=seed or 0)
        elif seed is not None and seed != spec.seed:
            spec = replace(spec, seed=seed)
        dataset = build_dataset(spec.dataset, profile=self.profile)
        model = build_model(spec.model, dataset, seed=spec.seed)
        if spec.checkpoint is not None:
            if not hasattr(model, "load_state_dict"):
                raise TypeError(f"model {spec.model!r} does not support "
                                "checkpoint loading")
            from ..nn.serialization import load_checkpoint
            model.load_state_dict(load_checkpoint(spec.checkpoint))
        if self.dtype is not None and hasattr(model, "to_dtype"):
            model.to_dtype(self.dtype)
        recommender = self.build_recommender(model, dataset)
        scenario = Scenario(spec=spec, dataset=dataset, model=model,
                            recommender=recommender)
        if self.warm and recommender.index is not None:
            recommender.refresh()
        self._scenarios[spec.key] = scenario
        return scenario

    def add_all(self, specs: str | list,
                seed: int | None = None) -> list[Scenario]:
        """Add many scenarios (a comma-separated string or a list)."""
        if isinstance(specs, str):
            specs = [s for s in specs.split(",") if s.strip()]
        return [self.add(spec, seed=seed) for spec in specs]

    def build_recommender(self, model, dataset, index=None) -> Recommender:
        """One :class:`Recommender` wired with this registry's settings.

        The single place the retrieval configuration (exclude-seen,
        dtype, ANN backend/knobs) turns into a recommender — used by
        :meth:`add`, by the hot-swap path (``repro.stream``) and by pool
        workers over their shared-memory index, so a swapped-in
        generation can never serve with different retrieval
        configuration than a freshly loaded one.
        """
        extra = ({} if self.min_ann_items is None
                 else {"min_ann_items": self.min_ann_items})
        return Recommender(model, dataset, index=index,
                           exclude_seen=self.exclude_seen,
                           index_dtype=self.dtype,
                           retrieval=self.retrieval,
                           ann_params=self.ann_params, **extra)

    def build_scenario(self, spec: ScenarioSpec, dataset, model,
                       index=None) -> Scenario:
        """Assemble a :class:`Scenario` around pre-built parts.

        The counterpart of :meth:`build_recommender` one level up: hot
        swaps (``repro.stream``) bring their own dataset snapshot and
        model generation, but the recommender wiring must still come
        from this registry's retrieval settings.
        """
        recommender = self.build_recommender(model, dataset, index=index)
        return Scenario(spec=spec, dataset=dataset, model=model,
                        recommender=recommender)

    # -- hot swap ------------------------------------------------------------

    def publish(self, scenario: Scenario) -> Scenario:
        """Atomically replace a loaded scenario with a new generation.

        This is the registry half of a hot swap (``repro.stream``): the
        caller builds a fully warmed :class:`Scenario` (model + dataset
        snapshot + recommender whose index is already encoded) off the
        request path, then publishes it here. Routing flips on a single
        dict assignment. ``RecommendationService.publish_generation``
        calls this only after every serving process swapped its batcher
        onto the new generation. Returns the scenario it replaced, or
        raises if the key was never loaded (a swap must target a serving
        scenario, not create one).
        """
        key = scenario.spec.key
        if key not in self._scenarios:
            known = sorted(f"{d}:{m}" for d, m in self._scenarios)
            raise KeyError(f"cannot publish {key[0]}:{key[1]}: scenario "
                           f"not loaded; loaded scenarios: {known}")
        previous = self._scenarios[key]
        self._scenarios[key] = scenario
        return previous

    # -- routing -------------------------------------------------------------

    def get(self, dataset: str, model: str) -> Scenario:
        key = (dataset, model)
        if key not in self._scenarios:
            known = sorted(f"{d}:{m}" for d, m in self._scenarios)
            raise KeyError(f"no scenario {dataset}:{model}; "
                           f"loaded scenarios: {known}")
        return self._scenarios[key]

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self):
        return iter(self._scenarios.values())

    def keys(self) -> list[tuple[str, str]]:
        return list(self._scenarios)

    def describe(self) -> list[dict]:
        return [scenario.describe() for scenario in self._scenarios.values()]
