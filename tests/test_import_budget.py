"""Each public surface loads the layers it uses, and no more.

The package surfaces of ``repro.core``, ``repro.models``, ``repro.spmd``
and ``repro.experiments`` resolve their names on first use
(:mod:`repro._lazy`), and the experiment registry imports a driver on its
first call, so a process imports -- and, without a bytecode cache,
compiles -- only the layers it calls.  Each case runs in a fresh
interpreter and names modules that must stay unloaded.

The service is the exception by design: it forks its workers, so every
module a forked job runs is loaded in the parent first.  A child then never
imports on a job, never compiles a module after a re-fork, and never waits
on an import lock a parent thread held at the fork.

No import statement runs inside per-step or per-op code either (DESIGN
§3); the functions on the chaos, cluster and trainer-building paths are
read for one.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str):
    """Run ``code`` in a fresh interpreter; the JSON of its last line."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    return set(_run(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def _layers(modules: set[str], prefixes: tuple[str, ...]) -> set[str]:
    return {m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)}


SURFACES = {
    "step-time queries": (
        "from repro.core import StepTimeModel, plan_parallelism",
        ("networkx", "repro.core.trainer", "repro.runtime.collectives"),
    ),
    "partitioner search": (
        "from repro.spmd import SearchConfig, resnet_block_graph, search_partitioning\n"
        "search_partitioning(resnet_block_graph(), SearchConfig(num_shards=2, beam_width=2))",
        ("repro.cluster", "repro.service"),
    ),
    "experiment registry": (
        "from repro.experiments.runner import EXPERIMENTS",
        ("repro.service", "repro.cluster", "repro.resilience.chaos"),
    ),
    "trainers": (
        "from repro.core import make_trainer",
        ("networkx", "repro.cluster", "repro.service", "repro.spmd"),
    ),
    # The harness runs a detector, a guard and a checkpoint policy: the
    # barrier, the host topologies and the framework models stay unloaded.
    "chaos harness": (
        "import repro.resilience.chaos",
        ("repro.controlplane.barrier", "repro.controlplane.group", "repro.frameworks",
         "repro.cluster", "repro.service", "repro.spmd"),
    ),
}


@pytest.mark.parametrize("surface", SURFACES)
def test_surface_loads_only_its_layers(surface):
    code, unwanted = SURFACES[surface]
    assert _layers(loaded_after(code), unwanted) == set()


def test_service_loads_what_its_forked_jobs_run():
    """``import repro.service`` loads the chaos harness and the cluster
    scheduler, and then one full chaos job and one cluster job -- the kinds
    a worker forks (``executors.FORKED_JOBS``) -- import nothing further,
    not even a numpy submodule."""
    loaded, new = _run(
        "import json, sys\n"
        "import repro.service\n"
        "from repro.service import SimJob, executors\n"
        "before = set(sys.modules)\n"
        "assert {kind for kind, _ in executors.FORKED_JOBS} == {'chaos', 'cluster'}\n"
        "executors.execute(SimJob('chaos', {\n"
        "    'mesh_shape': [2, 2], 'steps': 12, 'seed': 3, 'expected_chip_failures': 1.0,\n"
        "    'expected_stragglers': 1.0, 'expected_bit_flips': 1.0}))\n"
        "executors.execute(SimJob('cluster', {\n"
        "    'tenants': [{'name': 'a', 'slice_shape': [2, 2], 'target_steps': 10,\n"
        "                 'checkpoint_policy': {'policy': 'step', 'every_steps': 3}},\n"
        "                {'name': 'b', 'slice_shape': [2, 2], 'target_steps': 10,\n"
        "                 'priority': 1}],\n"
        "    'mesh_shape': [4, 4], 'max_ticks': 300, 'expected_chip_failures': 2.0,\n"
        "    'seed': 5}))\n"
        "print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))"
    )
    assert {"repro.resilience.chaos", "repro.cluster.scheduler"} <= set(loaded)
    assert new == []


#: Functions run per chaos run, per cluster run, per trainer build or per
#: straggler step: source file under ``src/repro`` -> function names, a
#: method's as ``Class.method``.
PER_OP_FUNCTIONS = {
    "resilience/chaos.py": ("trainer_for", "run_chaos"),
    "cluster/scheduler.py": ("_blame_stragglers", "ClusterScheduler.__init__"),
    "core/trainer.py": ("make_trainer",),
}


def _functions(tree: ast.Module):
    """Every function in ``tree`` by its name, and every method also as
    ``Class.method``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


@pytest.mark.parametrize("path", PER_OP_FUNCTIONS)
def test_per_op_functions_hold_no_import_statement(path):
    tree = ast.parse((SRC / "repro" / path).read_text())
    functions = {
        name: node for name, node in _functions(tree)
        if name in PER_OP_FUNCTIONS[path]
    }
    assert set(functions) == set(PER_OP_FUNCTIONS[path])
    for name, function in functions.items():
        imports = [
            node.lineno for node in ast.walk(function)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == [], f"{path}:{imports} imports inside {name}"
