"""Genetic-algorithm feature selection (Section 4.2).

Evaluating all 2^76 feature subsets is intractable, so the paper runs a
GA (the R ``genalg`` package) over boolean feature masks.  An individual
is a 76-bit vector; its fitness is

    max(median_error_Atom, median_error_SandyBridge) × K

evaluated on the Numerical Recipes training suite, with K the number of
clusters the elbow method picks for that feature subset.  Core 2 and the
NAS suite are deliberately held out of training.

This module provides a generic bit-mask GA (tournament selection,
uniform crossover, per-bit mutation, elitism) and the feature-selection
fitness wired to the pipeline.  Everything the fitness needs per
individual — feature matrix, reference/target times — is precomputed
once, and each generation's new masks are linked in one stacked call
and cut at their elbows in another, so a full GA run stays in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codelets.measurement import Measurer
from ..codelets.profiling import CodeletProfile
from ..machine.architecture import ATOM, SANDY_BRIDGE
from ..machine.noise import median
from .clustering import (ELBOW_K_MAX, Dendrogram, ElbowCut, elbow_stack,
                         linkage_stack)
from .features import ALL_FEATURE_NAMES, FeatureMatrix
from .pipeline import cluster_and_select
from .representatives import NoRepresentativeError, ill_behaved_codelets


#: The GA's operators, which the paper fixes (R ``genalg``, mutation
#: 0.01): per-bit mutation rate, uniform-crossover probability,
#: tournament size, elite individuals kept per generation, and the
#: expected fraction of bits set in the initial population.
MUTATION_RATE = 0.01
CROSSOVER_RATE = 0.9
TOURNAMENT = 3
ELITE = 2
INIT_DENSITY = 0.2


@dataclass(frozen=True)
class GAConfig:
    """The GA settings the experiments vary.  The paper used population
    1000 for 100 generations; the defaults here, which ``repro report``
    runs, are smaller so the experiment reruns in seconds.

    ``seed=None`` draws OS entropy — every run then explores a
    different trajectory.  The verify harness's ``ga-selection``
    invariant exists to catch exactly that misconfiguration leaking
    into experiments, so production configs always pin a seed.
    """

    population: int = 60
    generations: int = 15
    seed: Optional[int] = 42


@dataclass(frozen=True)
class GAResult:
    """Outcome of a GA run."""

    best_mask: Tuple[bool, ...]
    best_fitness: float
    history: Tuple[float, ...]          # best fitness per generation
    generations_run: int

    def selected(self, names: Sequence[str]) -> Tuple[str, ...]:
        return tuple(n for n, keep in zip(names, self.best_mask) if keep)


def run_ga(n_bits: int, fitness: Callable[[np.ndarray], np.ndarray],
           config: GAConfig = GAConfig(),
           seed_individuals: Sequence[np.ndarray] = ()) -> GAResult:
    """Minimise a fitness over boolean vectors of length ``n_bits``.

    ``fitness`` scores a whole population at once: it takes a
    (population × ``n_bits``) bool array, one individual per row, and
    returns one score per row.

    ``seed_individuals`` are injected into the initial population
    verbatim (replacing random individuals).  With elitism active the
    best score never worsens across generations, so seeding a known
    baseline — e.g. the all-features mask — guarantees the result never
    scores worse than it.
    """
    if len(seed_individuals) > config.population:
        raise ValueError(
            f"{len(seed_individuals)} seed individuals exceed the "
            f"population size {config.population}")
    rng = np.random.default_rng(config.seed)
    pop = rng.random((config.population, n_bits)) < INIT_DENSITY
    for i, individual in enumerate(seed_individuals):
        pop[i] = np.asarray(individual, dtype=bool)
    # Guarantee non-empty individuals.
    for row in pop:
        if not row.any():
            row[rng.integers(n_bits)] = True

    def scored(p: np.ndarray) -> np.ndarray:
        scores = np.asarray(fitness(p), dtype=float)
        if scores.shape != (len(p),):
            raise ValueError(f"fitness returned shape {scores.shape} "
                             f"for a population of {len(p)}")
        return scores

    scores = scored(pop)
    history: List[float] = []
    for _ in range(config.generations):
        order = np.argsort(scores)
        history.append(float(scores[order[0]]))
        next_pop = [pop[i].copy() for i in order[:ELITE]]
        while len(next_pop) < config.population:
            # Tournament selection of two parents.
            parents = []
            for _ in range(2):
                contenders = rng.integers(0, config.population, TOURNAMENT)
                parents.append(pop[contenders[np.argmin(
                    scores[contenders])]])
            # Uniform crossover.
            if rng.random() < CROSSOVER_RATE:
                mask = rng.random(n_bits) < 0.5
                child = np.where(mask, parents[0], parents[1])
            else:
                child = parents[0].copy()
            # Bit-flip mutation.
            flips = rng.random(n_bits) < MUTATION_RATE
            child = np.logical_xor(child, flips)
            if not child.any():
                child[rng.integers(n_bits)] = True
            next_pop.append(child)
        pop = np.array(next_pop)
        scores = scored(pop)

    best = int(np.argmin(scores))
    history.append(float(scores[best]))
    return GAResult(
        best_mask=tuple(bool(b) for b in pop[best]),
        best_fitness=float(scores[best]),
        history=tuple(history),
        generations_run=config.generations,
    )


# ---------------------------------------------------------------------------
# Feature-selection fitness (the paper's training setup)
# ---------------------------------------------------------------------------


#: The architectures the fitness trains on; Core 2 is held out.
TRAIN_TARGETS = (ATOM, SANDY_BRIDGE)


class FeatureSelectionProblem:
    """Precomputed state for evaluating feature subsets on a suite.

    Fitness of a mask: cluster the training codelets using only the
    masked features, cut at the elbow K, select representatives, predict
    each of :data:`TRAIN_TARGETS`, and return
    ``max(median errors) * K`` (lower is better).  The fidelity
    verdicts do not depend on the mask, so they are judged once here.
    """

    def __init__(self, profiles: Sequence[CodeletProfile],
                 measurer: Measurer):
        self.profiles = list(profiles)
        self.ill_behaved = ill_behaved_codelets(self.profiles, measurer)
        self.features = FeatureMatrix.from_profiles(self.profiles,
                                                    ALL_FEATURE_NAMES)
        # Real target times (in-app, measured) per architecture.
        self.real_times: Dict[str, Dict[str, float]] = {}
        self.rep_bench: Dict[str, Dict[str, float]] = {}
        for arch in TRAIN_TARGETS:
            self.real_times[arch.name] = {
                p.name: measurer.measure_inapp(p.codelet, arch)
                for p in self.profiles}
            self.rep_bench[arch.name] = {
                p.name: measurer.benchmark_standalone(
                    p.codelet, arch).per_invocation_s
                for p in self.profiles}
        # Z-scores are column-local, so the normalisation of a column
        # subset equals the same columns of the full normalised matrix
        # (bit-identically) — one upfront normalisation serves every
        # mask evaluation.
        self._normalized_full = self.features.normalized()
        self._cache: Dict[bytes, float] = {}

    @property
    def n_bits(self) -> int:
        return len(self.features.feature_names)

    def evaluate_population(self, population: np.ndarray) -> np.ndarray:
        """Fitness of every mask in ``population`` (one per row): the
        population-level fitness :func:`run_ga` takes.

        The distinct masks not scored yet are linked first, in one
        :func:`~repro.core.clustering.linkage_stack` call, and cut at
        their elbows in one :func:`~repro.core.clustering.elbow_stack`
        call.  Each individual is then scored by :meth:`evaluate_mask`,
        in population order, so the cache fills as if the masks were
        scored one at a time, and every score is the same bits.
        """
        population = np.asarray(population, dtype=bool)
        keys = [mask.tobytes() for mask in population]
        unscored: Dict[bytes, np.ndarray] = {}
        for key, mask in zip(keys, population):
            if key not in self._cache:
                unscored.setdefault(key, mask)
        sets = [self._normalized_full[:, mask] for mask in unscored.values()]
        dendrograms = linkage_stack(sets)
        cuts = elbow_stack(sets, dendrograms, ELBOW_K_MAX)
        done = dict(zip(unscored, zip(dendrograms, cuts)))
        return np.array([
            self.evaluate_mask(mask, *done.get(key, (None, None)))
            for key, mask in zip(keys, population)])

    def evaluate_mask(self, mask: np.ndarray,
                      dendrogram: Optional[Dendrogram] = None,
                      cut: Optional[ElbowCut] = None) -> float:
        """Fitness of one feature mask.  ``dendrogram`` is the Ward
        dendrogram of the mask's rows and ``cut`` its elbow when the
        caller has computed them already; otherwise they are computed
        here."""
        mask = np.asarray(mask, dtype=bool)
        key = mask.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        try:
            _, selection, model = cluster_and_select(
                self.profiles, self._normalized_full[:, mask], "elbow",
                self.ill_behaved, dendrogram=dendrogram, elbow=cut)
        except NoRepresentativeError:
            self._cache[key] = float("inf")
            return float("inf")
        worst = 0.0
        for arch in TRAIN_TARGETS:
            errors = model.errors(self.rep_bench[arch.name],
                                  self.real_times[arch.name])
            worst = max(worst, float(median(errors)))
        fitness = worst * selection.k
        self._cache[key] = fitness
        return fitness


def select_features(profiles: Sequence[CodeletProfile],
                    measurer: Measurer,
                    config: GAConfig = GAConfig()
                    ) -> Tuple[GAResult, FeatureSelectionProblem]:
    """Run the paper's GA feature selection on a training suite.

    The all-features mask is seeded into the initial population, so the
    selected subset is guaranteed to never score worse than using every
    feature on the training criterion (the ``ga-selection`` invariant
    of ``repro verify`` holds by construction, not by luck).
    """
    problem = FeatureSelectionProblem(profiles, measurer)
    full = np.ones(problem.n_bits, dtype=bool)
    result = run_ga(problem.n_bits, problem.evaluate_population, config,
                    seed_individuals=[full])
    return result, problem
