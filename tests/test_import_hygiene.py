"""Import hygiene: a cold ``qir-run`` loads only what a request uses.

Each check runs in a fresh interpreter (``sys.executable``), because
``sys.modules`` in the test process already holds whatever other tests
imported.  Nothing here is timed, so the verdict is the same on every
machine: a regression shows up as a module name, not a slower clock.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.qec import teleportation_qir
from repro.workloads.qir_programs import ghz_qir, reset_chain_qir

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a plain ``qir-run FILE`` never needs: graph and scipy stacks,
#: the process-pool machinery, and the subpackages outside the
#: parse -> plan -> execute path.
NOT_LOADED_BY_QIR_RUN = (
    "networkx",
    "scipy",
    "multiprocessing",
    "concurrent.futures",
    "repro.circuit",
    "repro.qasm",
    "repro.hybrid",
    "repro.compiler",
    "repro.obs.analytics",
    "repro.obs.regress",
    "repro.obs.traceview",
)


def run_fresh(code: str):
    """Run *code* in a new interpreter on this tree; return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_only_the_root_package():
    loaded = run_fresh(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )
    assert loaded == ["repro"]


def test_qir_run_import_skips_unused_subsystems():
    loaded = run_fresh(
        "import json, sys, repro.tools.qir_run\n"
        f"print(json.dumps([m for m in {NOT_LOADED_BY_QIR_RUN!r}"
        " if m in sys.modules]))"
    )
    assert loaded == []


#: One program per execution tier: the sampling fast path, the batched
#: tier, and (after the fast path and the batch decline on feedback) the
#: serial per-shot interpreter.
REQUESTS = {
    "fastpath": lambda: ghz_qir(3),
    "batched": lambda: reset_chain_qir(2),
    "per_shot": lambda: teleportation_qir(),
}


@pytest.mark.parametrize("tier", sorted(REQUESTS))
def test_qir_run_request_skips_unused_subsystems(tier, tmp_path):
    # A whole request (parse, verify, plan, execute, print) stays off the
    # same modules on every tier.
    path = tmp_path / f"{tier}.ll"
    path.write_text(REQUESTS[tier]())
    loaded = run_fresh(
        "import contextlib, io, json, sys\n"
        "from repro.tools.qir_run import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([{str(path)!r}, '--shots', '20'])\n"
        f"print(json.dumps([code] + [m for m in {NOT_LOADED_BY_QIR_RUN!r}"
        " if m in sys.modules]))"
    )
    assert loaded == [0]


def test_lazy_exports_resolve_to_their_defining_objects():
    # Every exported name is the very object its defining module holds,
    # and after resolution it is cached in the package namespace.
    mismatches = run_fresh(
        "import importlib, json, repro, repro.obs\n"
        "bad = []\n"
        "for package in (repro, repro.obs):\n"
        "    for name in package.__all__:\n"
        "        value = getattr(package, name)\n"
        "        module = package._EXPORTS.get(name)\n"
        "        if module is not None and value is not getattr("
        "importlib.import_module(module), name):\n"
        "            bad.append(package.__name__ + '.' + name)\n"
        "        if vars(package).get(name) is not value:\n"
        "            bad.append(package.__name__ + '.' + name + ' (uncached)')\n"
        "        if name not in dir(package):\n"
        "            bad.append(package.__name__ + '.' + name + ' (not in dir)')\n"
        "print(json.dumps(bad))"
    )
    assert mismatches == []


def test_star_import_binds_exactly_all():
    result = run_fresh(
        "import json, repro, repro.obs\n"
        "out = {}\n"
        "for package in ('repro', 'repro.obs'):\n"
        "    namespace = {}\n"
        "    exec(f'from {package} import *', namespace)\n"
        "    namespace.pop('__builtins__')\n"
        "    out[package] = sorted(namespace)\n"
        "print(json.dumps(out))"
    )
    import repro
    import repro.obs

    assert result["repro"] == sorted(repro.__all__)
    assert result["repro.obs"] == sorted(repro.obs.__all__)


def test_subpackages_resolve_as_attributes():
    # ``import repro`` alone, then attribute access reaches a subpackage.
    names = run_fresh(
        "import json, repro\n"
        "print(json.dumps([repro.runtime.__name__, repro.obs.tracer.__name__]))"
    )
    assert names == ["repro.runtime", "repro.obs.tracer"]


def test_unknown_names_raise_attribute_error():
    import repro
    import repro.obs

    for package in (repro, repro.obs):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")
        assert not hasattr(package, "_private_missing")
