#!/usr/bin/env python3
"""GA feature selection, as in Section 4.2.

Trains feature subsets on the Numerical Recipes suite with the paper's
fitness (max of the Atom / Sandy Bridge median errors, times the elbow
K), then compares the GA's winner against using all 76 features and
against the paper's published Table 2 set.

Run:  python examples/feature_selection.py [generations]
"""

import sys

import numpy as np

from repro import BenchmarkReducer, build_nr_suite
from repro.core.features import ALL_FEATURE_NAMES, TABLE2_FEATURES
from repro.core.ga import GAConfig, select_features


def main() -> None:
    generations = int(sys.argv[1]) if len(sys.argv) > 1 else 20

    reducer = BenchmarkReducer(build_nr_suite())
    print(f"training on {len(reducer.profiling().profiles)} NR codelets, "
          f"{len(ALL_FEATURE_NAMES)} candidate features")

    config = GAConfig(population=80, generations=generations, seed=42)
    result, problem = select_features(reducer, config)

    print(f"\nGA converged after {result.generations_run} generations")
    print("fitness history (best per generation):")
    history = np.array(result.history)
    for g in range(0, len(history), max(1, len(history) // 10)):
        print(f"  gen {g:3d}: {history[g]:8.2f}")

    selected = result.selected(ALL_FEATURE_NAMES)
    print(f"\nselected {len(selected)} features "
          f"(paper's GA selected 14):")
    for name in selected:
        marker = " *" if name in TABLE2_FEATURES else ""
        print(f"  {name}{marker}")
    print("(* = also in the paper's Table 2 set)")

    all_mask = np.ones(len(ALL_FEATURE_NAMES), dtype=bool)
    paper_mask = np.array([n in TABLE2_FEATURES
                           for n in ALL_FEATURE_NAMES])
    print(f"\nfitness comparison (lower is better):")
    print(f"  GA-selected subset : {result.best_fitness:8.2f}")
    print(f"  paper's Table 2 set: "
          f"{problem.evaluate_mask(paper_mask):8.2f}")
    print(f"  all 76 features    : "
          f"{problem.evaluate_mask(all_mask):8.2f}")


if __name__ == "__main__":
    main()
