"""What a command imports, and the lazy package namespaces behind it.

``reduce`` and ``predict`` must load exactly :data:`PINNED`, both right
after ``import repro.cli`` and at the end of the command, so a stray
eager import fails here as a list diff rather than as start-up noise.
The command and import-order checks run in fresh interpreters, where
nothing else has imported the modules yet.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every ``repro`` module that ``import repro.cli`` loads; ``reduce`` and
#: ``predict`` of either suite load no other.
PINNED = (
    "repro", "repro._exports",
    "repro.analysis", "repro.analysis.lint", "repro.analysis.lint.bounds",
    "repro.analysis.lint.deadstore", "repro.analysis.lint.deps",
    "repro.analysis.lint.diagnostics", "repro.analysis.lint.overlap",
    "repro.analysis.lint.registry", "repro.analysis.lint.transform",
    "repro.analysis.lint.uninit", "repro.analysis.static_metrics",
    "repro.cli",
    "repro.codelets", "repro.codelets.codelet", "repro.codelets.finder",
    "repro.codelets.measurement", "repro.codelets.profiling",
    "repro.core", "repro.core.clustering", "repro.core.features",
    "repro.core.ga", "repro.core.pipeline", "repro.core.prediction",
    "repro.core.reduction", "repro.core.representatives",
    "repro.experiments", "repro.experiments.context",
    "repro.ir", "repro.ir.builder", "repro.ir.dependence", "repro.ir.expr",
    "repro.ir.fingerprint", "repro.ir.kernel", "repro.ir.rewrite",
    "repro.ir.rewrite.legality", "repro.ir.rewrite.substitute",
    "repro.ir.stmt", "repro.ir.traverse", "repro.ir.types",
    "repro.ir.validate",
    "repro.isa", "repro.isa.compiler", "repro.isa.deps",
    "repro.isa.instructions",
    "repro.machine", "repro.machine.architecture",
    "repro.machine.cache_model", "repro.machine.counters",
    "repro.machine.exec_model", "repro.machine.noise",
    "repro.machine.platform",
    "repro.obs", "repro.obs.metrics", "repro.obs.observation",
    "repro.obs.tracer",
    "repro.runtime", "repro.runtime.cache", "repro.runtime.config",
    "repro.runtime.executor", "repro.runtime.faults",
    "repro.runtime.fingerprint", "repro.runtime.resilience",
    "repro.suites", "repro.suites.nas", "repro.suites.nas.bt",
    "repro.suites.nas.cg", "repro.suites.nas.common", "repro.suites.nas.ft",
    "repro.suites.nas.is_", "repro.suites.nas.lu", "repro.suites.nas.mg",
    "repro.suites.nas.sp", "repro.suites.nr", "repro.suites.patterns",
)

#: The modules of the ``-j`` process pool.
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")

#: Every package whose namespace :func:`repro._exports.lazy_exports`
#: builds.
LAZY_PACKAGES = (
    "repro", "repro.analysis", "repro.analysis.lint", "repro.codelets",
    "repro.core", "repro.experiments", "repro.ir", "repro.ir.rewrite",
    "repro.isa", "repro.machine", "repro.obs", "repro.runtime",
    "repro.suites", "repro.verify",
)

COMMAND = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))

import repro.cli

after_import = loaded()
status = repro.cli.main(sys.argv[1:])
print(json.dumps({"status": status, "import": after_import,
                  "command": loaded(),
                  "pool": [name for name in %r if name in sys.modules],
                  "hypothesis": [name for name in sys.modules
                                 if name.split(".")[0] == "hypothesis"]}))
""" % (POOL_MODULES,)

#: Each package imported first: every ``repro`` module is dropped
#: before the next ``from P import *``, after which each submodule must
#: resolve as an attribute of its package (``repro.core.clustering``).
STAR_IMPORTS = """
import importlib, pkgutil, sys

for package in sys.argv[1:]:
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    exec(f"from {package} import *", {})
    module = importlib.import_module(package)
    for info in pkgutil.iter_modules(module.__path__):
        if not info.name.startswith("__"):
            getattr(module, info.name)
"""


def _fresh(script, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("command", ["reduce", "predict"])
def test_a_command_loads_only_the_pinned_modules(tmp_path, command):
    proc = _fresh(COMMAND, command, "--suite", "nr", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    assert tuple(result["import"]) == PINNED
    assert tuple(result["command"]) == PINNED
    assert result["pool"] == []


def test_verify_list_loads_no_hypothesis(tmp_path):
    # The invariants draw from the seeded generators; the Hypothesis
    # strategies over them are a test dependency.
    proc = _fresh(COMMAND, "verify", "--list", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    assert "repro.verify.invariants" in result["command"]
    assert result["hypothesis"] == []


def test_every_package_imports_first_in_a_fresh_interpreter(tmp_path):
    proc = _fresh(STAR_IMPORTS, *LAZY_PACKAGES, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_lazy_export_resolves(name):
    package = importlib.import_module(name)
    exported = [n for n in package.__all__ if n != "__version__"]
    assert len(set(package.__all__)) == len(package.__all__)
    # A submodule imported under an exported name would shadow it.
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("__"):
            importlib.import_module(f"{name}.{info.name}")
    for export in exported:
        # Called directly, __getattr__ reads the name from the module
        # its table row lists, whatever the namespace has cached.
        assert getattr(package, export) is package.__getattr__(export)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    assert not hasattr(package, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        package.__getattr__("no_such_export")
