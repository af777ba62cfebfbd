"""Kernels: a named loop nest plus the arrays it touches.

A :class:`Kernel` is the IR equivalent of one source-code region that
Codelet Finder can outline: an outermost loop (possibly a nest) with a
well-defined set of input/output arrays and no side effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .expr import Array, IRError, Load
from .fingerprint import render_fingerprint
from .stmt import Block, Loop, Store, walk_statements


@dataclass(frozen=True)
class SourceLoc:
    """A synthetic source location, used to name codelets ``file:lines``
    the way the paper does (e.g. ``LU/erhs.f:49-57``)."""

    file: str
    first_line: int
    last_line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.first_line}-{self.last_line}"


@dataclass(frozen=True)
class Kernel:
    """A side-effect-free loop nest over named arrays.

    Attributes
    ----------
    name:
        Unique kernel name (``toeplz_1``, ``bt_rhs_266``...).
    arrays:
        Every array referenced by the body, in declaration order.  The
        extractor snapshots these to build the memory dump of a
        standalone microbenchmark.
    body:
        The statements; for a codelet this is a single outermost loop.
    srcloc:
        Optional synthetic source coordinates for codelet naming.
    inputs:
        Optional declaration of the arrays the extractor's memory dump
        initialises before the first invocation.  ``None`` (the
        default) keeps the historical convention that *every* array is
        externally initialised; when given, the lint ``uninit`` pass
        flags loads from arrays that are neither inputs nor stored by
        the kernel.
    """

    name: str
    arrays: Tuple[Array, ...]
    body: Block
    srcloc: Optional[SourceLoc] = None
    inputs: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        names = [a.name for a in self.arrays]
        if len(set(names)) != len(names):
            raise IRError(f"kernel {self.name!r}: duplicate array names")
        declared = set(names)
        if self.inputs is not None:
            unknown = [n for n in self.inputs if n not in declared]
            if unknown:
                raise IRError(
                    f"kernel {self.name!r} declares undeclared arrays "
                    f"as inputs: {', '.join(unknown)}")
        for stmt, _ in walk_statements(self.body):
            if isinstance(stmt, Store):
                refs = [stmt.array] + [ld.array for ld in stmt.loads()]
                for arr in refs:
                    if arr.name not in declared:
                        raise IRError(
                            f"kernel {self.name!r} references undeclared "
                            f"array {arr.name!r}")

    @cached_property
    def fingerprint(self) -> str:
        """Canonical, name-independent rendering of the kernel's content
        (:mod:`repro.ir.fingerprint`).  The kernel is immutable, so it is
        rendered once per object; ``dataclasses.replace`` builds a new
        object, which renders its own."""
        return render_fingerprint(self)

    # -- structure ----------------------------------------------------------

    @property
    def outer_loops(self) -> List[Loop]:
        return [s for s in self.body if isinstance(s, Loop)]

    def stores(self) -> List[Tuple[Store, Tuple[Loop, ...]]]:
        return [(s, stack) for s, stack in walk_statements(self.body)
                if isinstance(s, Store)]

    def loads(self) -> List[Load]:
        out: List[Load] = []
        for store, _ in self.stores():
            out.extend(store.loads())
        return out

    def array(self, name: str) -> Array:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    def depth(self) -> int:
        """Maximum loop-nest depth."""
        best = 0
        for stmt, stack in walk_statements(self.body):
            if isinstance(stmt, Loop):
                best = max(best, len(stack) + 1)
        return best

    def footprint_bytes(self) -> int:
        """Total bytes of all declared arrays (upper bound on the working
        set; per-loop footprints are computed in :mod:`repro.ir.traverse`).
        """
        return sum(a.nbytes for a in self.arrays)

    def storage_spec(self) -> Dict[str, Tuple[Tuple[int, ...], str]]:
        """Shape/dtype of each array, used by the extractor's memory dump."""
        return {a.name: (a.shape, a.dtype.name) for a in self.arrays}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Kernel({self.name}: {len(self.arrays)} arrays, "
                f"depth {self.depth()})")
