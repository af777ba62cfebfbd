"""Pass-pipeline parsing, kernel/suite application and reporting.

``repro transform --pass tile=4,interchange,fuse`` parses into a tuple
of :class:`PassSpec`, applied left to right by
:func:`transform_kernel`.  :func:`transform_suite` maps every codelet
variant of a benchmark suite through the pipeline (names and source
locations are preserved, so the transformed suite is comparable
codelet-for-codelet with the original — the transform-stability
experiment relies on that).  :class:`TransformReport` renders the
records deterministically as text and JSON twins.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..kernel import Kernel
from .passes import REWRITE_REGISTRY, TransformRecord


@dataclass(frozen=True)
class PassSpec:
    """One pipeline step: a registered rewrite plus its parameter."""

    name: str
    param: Optional[int] = None

    def __str__(self) -> str:
        return self.name if self.param is None \
            else f"{self.name}={self.param}"


def parse_pass_specs(specs: Sequence[str]) -> Tuple[PassSpec, ...]:
    """Parse ``--pass`` values (comma-separated, repeatable)."""
    out: List[PassSpec] = []
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                name, _, value = part.partition("=")
                try:
                    param: Optional[int] = int(value)
                except ValueError:
                    raise ValueError(
                        f"bad parameter in pass spec {part!r}: "
                        f"expected an integer") from None
            else:
                name, param = part, None
            if name not in REWRITE_REGISTRY:
                known = ", ".join(REWRITE_REGISTRY)
                raise ValueError(
                    f"unknown rewrite pass {name!r} (known: {known})")
            rp = REWRITE_REGISTRY[name]
            if rp.parametric and param is None:
                raise ValueError(
                    f"pass {name!r} needs a parameter, e.g. {name}=4")
            if not rp.parametric and param is not None:
                raise ValueError(
                    f"pass {name!r} takes no parameter")
            if param is not None and param < 2:
                raise ValueError(
                    f"pass {name!r}: parameter must be >= 2, "
                    f"got {param}")
            out.append(PassSpec(name, param))
    if not out:
        raise ValueError("empty pass pipeline")
    return tuple(out)


def transform_kernel(kernel: Kernel, specs: Sequence[PassSpec], *,
                     force: bool = False,
                     ) -> Tuple[Kernel, Tuple[TransformRecord, ...]]:
    """Run the pipeline over one kernel, left to right."""
    records: List[TransformRecord] = []
    out = kernel
    for spec in specs:
        rp = REWRITE_REGISTRY[spec.name]
        out, recs = rp.run(out, spec.param, force)
        records.extend(recs)
    return out, tuple(records)


def transform_suite(suite, specs: Sequence[PassSpec], *,
                    force: bool = False):
    """Map every codelet variant of ``suite`` through the pipeline.

    Returns ``(suite', records, n_kernels)``.  Regions keep their
    source locations, weights and invocation counts, so downstream
    codelet names are unchanged.
    """
    records: List[TransformRecord] = []
    n_kernels = 0
    apps = []
    for app in suite.applications:
        routines = []
        for routine in app.routines:
            regions = []
            for region in routine.regions:
                variants = []
                for kernel in region.variants:
                    n_kernels += 1
                    new_kernel, recs = transform_kernel(kernel, specs,
                                                        force=force)
                    variants.append(new_kernel)
                    records.extend(recs)
                regions.append(replace(region,
                                       variants=tuple(variants)))
            routines.append(replace(routine, regions=tuple(regions)))
        apps.append(replace(app, routines=tuple(routines)))
    return (replace(suite, applications=tuple(apps)),
            tuple(records), n_kernels)


def _slug(title: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_") \
        or "transform"


@dataclass(frozen=True)
class TransformReport:
    """Outcome of one ``repro transform`` run."""

    title: str
    pipeline: Tuple[PassSpec, ...]
    records: Tuple[TransformRecord, ...]
    n_kernels: int = 0
    forced: bool = False

    def count(self, status: str) -> int:
        return sum(r.status == status for r in self.records)

    def format(self) -> str:
        spec = ",".join(str(s) for s in self.pipeline)
        lines = [f"repro transform — {self.title} "
                 f"({self.n_kernels} kernels through [{spec}])"]
        if self.forced:
            lines.append("force-unsafe: illegal rewrites were applied "
                         "anyway")
        lines.append(
            f"decisions: {len(self.records)} "
            f"({self.count('applied')} applied, "
            f"{self.count('refused')} refused, "
            f"{self.count('forced')} forced, "
            f"{self.count('inapplicable')} inapplicable)")
        if self.records:
            lines.append("")
            lines.extend(str(r) for r in self.records)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "pipeline": [str(s) for s in self.pipeline],
            "n_kernels": self.n_kernels,
            "forced": self.forced,
            "counts": {s: self.count(s) for s in
                       ("applied", "refused", "forced", "inapplicable")},
            "records": [r.to_json() for r in self.records],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def save(self, report_dir: str = "reports") -> Tuple[str, str]:
        os.makedirs(report_dir, exist_ok=True)
        slug = _slug(self.title)
        txt = os.path.join(report_dir, f"transform_{slug}.txt")
        js = os.path.join(report_dir, f"transform_{slug}.json")
        with open(txt, "w", encoding="utf-8") as fh:
            fh.write(self.format() + "\n")
        with open(js, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())
        return txt, js
