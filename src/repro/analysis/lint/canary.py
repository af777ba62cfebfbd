"""Canary kernels: known-good and known-bad inputs for the lint passes.

Each canary is a tiny kernel built fresh on demand together with the
*exact* multiset of diagnostic codes linting it must produce.  The
``lint-determinism`` verification invariant replays them every run, so
silently dropping or weakening a pass (e.g. the ``drop-oob-check``
defect disabling the bounds pass) fails verification even though every
suite kernel happens to be clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple

from ...ir.builder import KernelBuilder
from ...ir.kernel import Kernel
from ...ir.types import DP
from .registry import lint_kernel

_N = 16


def _clean_copy() -> Kernel:
    b = KernelBuilder("canary_clean")
    x = b.array("x", (_N,), DP)
    y = b.array("y", (_N,), DP)
    with b.loop(0, _N) as i:
        b.assign(y[i], x[i] * 2.0)
    return b.build()


def _recurrence() -> Kernel:
    b = KernelBuilder("canary_recurrence")
    u = b.array("u", (_N,), DP)
    r = b.array("r", (_N,), DP)
    with b.loop(1, _N) as i:
        b.assign(u[i], u[i - 1] + r[i])
    return b.build()


def _nonuniform_self_read() -> Kernel:
    """Iteration ``2i`` reads what iteration ``i`` wrote: a flow
    dependence no single distance describes.  The compiler must keep
    this loop scalar, which ``compiler-dependence-agreement`` checks."""
    b = KernelBuilder("canary_nonuniform")
    a = b.array("a", (2 * _N,), DP)
    x = b.array("x", (_N,), DP)
    y = b.array("y", (_N,), DP)
    z = b.array("z", (_N,), DP)
    with b.loop(1, _N) as i:
        b.assign(a[2 * i], a[i] + x[i] * y[i] + z[i])
    return b.build()


def _running_prefix() -> Kernel:
    """A reduction whose running value is also read elsewhere: ``y[i]``
    needs the prefix ``s`` after iteration ``i``, so partial sums would
    store wrong values.  The compiler must keep this loop scalar, which
    ``compiler-dependence-agreement`` checks."""
    b = KernelBuilder("canary_prefix")
    x = b.array("x", (_N,), DP)
    y = b.array("y", (_N,), DP)
    s = b.scalar("s", DP)
    with b.loop(0, _N) as i:
        b.assign(s.value(), s.value() + x[i])
        b.assign(y[i], s.value())
    return b.build()


def _carried_write_overlap() -> Kernel:
    b = KernelBuilder("canary_carried_write")
    u = b.array("u", (_N + 1,), DP)
    x = b.array("x", (_N,), DP)
    with b.loop(0, _N) as i:
        b.assign(u[i], x[i])
        b.assign(u[i + 1], x[i] * 2.0)
    return b.build()


def _out_of_bounds() -> Kernel:
    b = KernelBuilder("canary_oob")
    x = b.array("x", (_N,), DP)
    y = b.array("y", (_N,), DP)
    with b.loop(0, _N) as i:
        b.assign(y[i + 1], x[i])
    return b.build()


def _uninitialized_read() -> Kernel:
    b = KernelBuilder("canary_uninit")
    x = b.array("x", (_N,), DP)
    z = b.array("z", (_N,), DP)
    y = b.array("y", (_N,), DP)
    b.mark_inputs(x)
    with b.loop(0, _N) as i:
        b.assign(y[i], x[i] + z[i])
    return b.build()


def _dead_store() -> Kernel:
    b = KernelBuilder("canary_dead_store")
    x = b.array("x", (_N,), DP)
    y = b.array("y", (_N,), DP)
    a = b.array("a", (_N,), DP)
    with b.loop(0, _N) as i:
        b.assign(a[i], x[i])
        b.assign(a[i], y[i])
    return b.build()


@dataclass(frozen=True)
class Canary:
    """A kernel with the exact codes linting it must emit (sorted)."""

    name: str
    build: Callable[[], Kernel]
    expected: Tuple[str, ...]


#: Every canary; ``expected`` is the sorted multiset of codes.
CANARIES: Tuple[Canary, ...] = (
    Canary("canary_clean", _clean_copy, ()),
    Canary("canary_recurrence", _recurrence, ("L101",)),
    Canary("canary_nonuniform", _nonuniform_self_read, ("L102",)),
    Canary("canary_prefix", _running_prefix, ("L102", "L103")),
    Canary("canary_carried_write", _carried_write_overlap, ("L201",)),
    Canary("canary_oob", _out_of_bounds, ("L301",)),
    Canary("canary_uninit", _uninitialized_read, ("L401",)),
    Canary("canary_dead_store", _dead_store, ("L501",)),
)


def check_canaries(disabled: Iterable[str] = ()) -> List[str]:
    """Lint every canary; returns a list of mismatch descriptions
    (empty = all canaries produced exactly their expected codes)."""
    problems: List[str] = []
    for canary in CANARIES:
        diags = lint_kernel(canary.build(), disabled=disabled)
        got = tuple(sorted(d.code for d in diags))
        if got != tuple(sorted(canary.expected)):
            problems.append(
                f"{canary.name}: expected codes "
                f"{list(canary.expected)}, got {list(got)}")
    return problems
