"""Hypothesis strategies over the seeded generators of
:mod:`repro.verify.strategies`.

Thin wrappers that let property tests shrink over the same space the
``repro verify`` harness draws from.  They require ``hypothesis``, a
test dependency, and raise a clear error when it is absent; the seeded
generators themselves need only numpy, so ``repro verify`` never loads
Hypothesis.
"""

from __future__ import annotations

from dataclasses import replace

from repro.machine.architecture import ALL_ARCHITECTURES, Architecture
from repro.verify.strategies import (FEATURE_MATRIX_VARIANTS,
                                     _feature_matrix, random_codelets)

try:                                    # optional test-time dependency
    from hypothesis import strategies as st
except ImportError:                     # pragma: no cover - CI has it
    st = None


def _require_hypothesis():
    if st is None:                      # pragma: no cover - CI has it
        raise RuntimeError(
            "tests.strategies: the Hypothesis strategies need the "
            "'hypothesis' package (pip install repro[test]); the seeded "
            "generators of repro.verify.strategies work without it")


def codelet_lists(min_count: int = 2, max_count: int = 8,
                  tame: bool = False):
    """Strategy over lists of random codelets (shrinks seed and size)."""
    _require_hypothesis()
    return st.builds(random_codelets,
                     st.integers(min_value=0, max_value=2 ** 32 - 1),
                     st.integers(min_value=min_count,
                                 max_value=max_count),
                     st.just(tame))


def feature_matrices(min_rows: int = 2, max_rows: int = 24,
                     max_cols: int = 6):
    """Strategy over float64 feature matrices (shrinks over seed,
    shape and tie-structure variant)."""
    _require_hypothesis()
    return st.builds(_feature_matrix,
                     st.integers(min_value=0, max_value=2 ** 32 - 1),
                     st.integers(min_value=min_rows, max_value=max_rows),
                     st.integers(min_value=1, max_value=max_cols),
                     st.sampled_from(FEATURE_MATRIX_VARIANTS))


def _scaled_architecture(arch: Architecture,
                         freq_scale: float) -> Architecture:
    if freq_scale == 1.0:
        return arch
    return replace(arch, name=f"{arch.name} x{freq_scale:g}",
                   freq_ghz=arch.freq_ghz * freq_scale)


def architecture_configs():
    """Strategy over architecture configurations: the four paper
    machines plus exact power-of-two frequency rescalings of each."""
    _require_hypothesis()
    return st.builds(_scaled_architecture,
                     st.sampled_from(ALL_ARCHITECTURES),
                     st.sampled_from([0.5, 1.0, 2.0]))
