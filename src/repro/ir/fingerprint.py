"""Canonical, name-independent kernel content fingerprints.

A fingerprint must be (a) **stable** across processes and sessions and
(b) **sensitive** to everything that influences lowering and measured
values.  Stability is the subtle part: loop-variable names are minted by
:func:`repro.ir.stmt.fresh_index` from a process-global counter, so two
builds of the *same* kernel (in the same session or across sessions that
construct suites in a different order) carry different variable names.
The renderer therefore canonicalises loop variables by order of
appearance (``v0``, ``v1``, ...), making the fingerprint a function of
kernel *content* only.  The kernel's own name is likewise excluded — a
codelet name identifies the slot, the fingerprint the substance.

This lives in :mod:`repro.ir` (rather than the runtime layer where the
profiling cache keys are assembled) because the compiler's lowering memo
(:mod:`repro.isa.compiler`) keys on it too, and ``isa`` must not import
``runtime`` (the runtime layer sits above the machine model, which sits
above ``isa``).  :mod:`repro.runtime.fingerprint` re-exports it for its
original callers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .expr import AffineIndex, BinOp, Call, Const, Expr, Load
from .stmt import Block, Loop, Stmt, Store

if TYPE_CHECKING:
    from .kernel import Kernel


def _affine(ix: AffineIndex, names: Dict[str, str]) -> str:
    # Unknown variables (shouldn't happen in valid kernels) keep their
    # raw name prefixed so they cannot collide with canonical ones.
    terms = sorted((names.get(var, "?" + var), coef)
                   for var, coef in ix.coefs)
    rendered = "+".join(f"{coef}{name}" for name, coef in terms)
    return f"{rendered}+{ix.offset}" if rendered else str(ix.offset)


def _expr(e: Expr, names: Dict[str, str]) -> str:
    if isinstance(e, Const):
        return f"{e.value!r}:{e.dtype.name}"
    if isinstance(e, Load):
        idx = ",".join(_affine(ix, names) for ix in e.indices)
        return f"{e.array.name}[{idx}]"
    if isinstance(e, BinOp):
        return f"({_expr(e.left, names)} {e.op} {_expr(e.right, names)})"
    if isinstance(e, Call):
        args = ",".join(_expr(a, names) for a in e.args)
        return f"{e.fn}({args})"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _stmt(s: Stmt, names: Dict[str, str]) -> str:
    if isinstance(s, Loop):
        names[s.var.name] = f"v{len(names)}"
        lower, upper = _affine(s.lower, names), _affine(s.upper, names)
        body = ";".join(_stmt(inner, names) for inner in s.body)
        return f"for {names[s.var.name]} in [{lower},{upper}){{{body}}}"
    if isinstance(s, Block):
        return ";".join(_stmt(inner, names) for inner in s)
    if isinstance(s, Store):
        idx = ",".join(_affine(ix, names) for ix in s.indices)
        return f"{s.array.name}[{idx}]={_expr(s.value, names)}"
    raise TypeError(f"unknown statement node {type(s).__name__}")


def render_fingerprint(kernel: Kernel) -> str:
    """Render a kernel's canonical content string.  Callers read
    :attr:`Kernel.fingerprint <repro.ir.kernel.Kernel.fingerprint>`,
    which renders once per kernel object."""
    arrays = ",".join(
        f"{a.name}:{a.dtype.name}:{'x'.join(map(str, a.shape))}"
        for a in kernel.arrays)
    names: Dict[str, str] = {}
    body = _stmt(kernel.body, names)
    return f"arrays[{arrays}]body{{{body}}}"


def kernel_fingerprint(kernel: Kernel) -> str:
    """Canonical rendering of a kernel's content (name-independent),
    rendered on the first call for each kernel object and stored on it."""
    return kernel.fingerprint
