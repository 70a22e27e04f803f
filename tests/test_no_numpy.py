"""The package runs without numpy.

``pyproject.toml`` declares no runtime dependencies; numpy and scipy are
dev extras that only the test oracle needs.  The runtime's default
layout solver is the built-in branch and bound; ``ScipyMilpSolver``
imports them only when a caller passes it explicitly.  Each check runs
in a fresh interpreter, since this test process may already have numpy
loaded.
"""

import json
import os
import subprocess
import sys

import repro
from repro.evaluation.experiments import run_server_scenario

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_entry_point_imports_leave_numpy_unloaded():
    loaded = _run(
        "import json, sys\n"
        "import repro.evaluation.experiments, repro.rdma.kv, repro.evaluation.fleet\n"
        "print(json.dumps(['numpy' in sys.modules, 'scipy' in sys.modules]))\n")
    assert loaded == [False, False]


def test_tivopc_server_scenario_runs_with_numpy_blocked():
    blocked = _run(
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.evaluation.experiments import run_server_scenario\n"
        "print(json.dumps(repr(run_server_scenario('simple', 1.0, 1))))\n")
    result = run_server_scenario("simple", 1.0, 1)
    assert result.packets > 0
    assert blocked == repr(result)


def test_runtime_layout_never_probes_scipy():
    # Both testbed runtimes resolve a layout here; neither may import the
    # optional solver's packages, even where they are installed.
    loaded = _run(
        "import json, sys\n"
        "from repro.core.runtime import HydraRuntime\n"
        "from repro.evaluation.experiments import run_server_scenario\n"
        "runtimes = []\n"
        "init = HydraRuntime.__init__\n"
        "def record(self, *args, **kwargs):\n"
        "    init(self, *args, **kwargs)\n"
        "    runtimes.append(self)\n"
        "HydraRuntime.__init__ = record\n"
        "run_server_scenario('offloaded', 1.0, 1)\n"
        "print(json.dumps(['numpy' in sys.modules, 'scipy' in sys.modules,\n"
        "                  [type(rt.resolver.solver).__name__\n"
        "                   for rt in runtimes]]))\n")
    assert loaded == [False, False,
                      ["BranchAndBoundSolver", "BranchAndBoundSolver"]]
