"""scipy is imported by the first flow batch that needs it, and only then.

``repro.simulation.flows`` answers :func:`have_sparse` from the import
system's index without importing scipy; the first batch at or above
``SPARSE_FLOW_THRESHOLD`` flows imports ``scipy.sparse``.  Without
scipy every batch runs on the dense backend with the same results.
Both checks run in a fresh interpreter, the second with scipy made
unimportable (``sys.modules["scipy"] = None``), as on a host that
lacks it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from importlib.util import find_spec
from pathlib import Path

import pytest

import repro
from repro.simulation.flows import (SPARSE_FLOW_THRESHOLD, compile_paths,
                                    have_sparse)
from repro.simulation.fluid import FluidNetworkSimulator
from repro.topology.switched import SwitchedStar

SRC = Path(repro.__file__).resolve().parent.parent

#: A batch of exactly ``SPARSE_FLOW_THRESHOLD`` flows: eight-way incasts
#: of five sizes, so the solve takes several filling rounds and events.
BIG = [(i, SPARSE_FLOW_THRESHOLD + i % 64, 1.0 + i % 5)
       for i in range(SPARSE_FLOW_THRESHOLD)]
HOSTS = SPARSE_FLOW_THRESHOLD + 64

SOLVE = f"""
    from repro.simulation.flows import compile_paths, have_sparse
    from repro.simulation.fluid import FluidNetworkSimulator
    from repro.topology.switched import SwitchedStar

    def solve(pairs):
        sim = FluidNetworkSimulator(SwitchedStar({HOSTS}, 10.0))
        paths = [sim.make_flow(s, d, z).path for s, d, z in pairs]
        backend = compile_paths(paths, sim.capacities).backend
        return backend, [r.finish_time for r in sim.run_pairs(pairs)]
"""


def _python(*parts: str) -> dict:
    """Run the dedented ``parts`` as one script in a fresh interpreter;
    its last stdout line is JSON."""
    code = "\n".join(textwrap.dedent(part) for part in parts)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_dense_fallback_with_scipy_unimportable():
    out = _python("""
        import json, sys
        sys.modules["scipy"] = None  # import scipy raises ImportError
    """, SOLVE, f"""
        backend, finish = solve({BIG!r})
        print(json.dumps({{"have_sparse": have_sparse(), "backend": backend,
                           "finish": finish}}))
    """)
    assert out["have_sparse"] is False
    assert out["backend"] == "dense"
    sim = FluidNetworkSimulator(SwitchedStar(HOSTS, 10.0))
    paths = [sim.make_flow(s, d, z).path for s, d, z in BIG]
    assert compile_paths(paths, sim.capacities).backend == \
        ("sparse" if have_sparse() else "dense")
    assert out["finish"] == [r.finish_time for r in sim.run_pairs(BIG)]


@pytest.mark.skipif(find_spec("scipy") is None, reason="scipy not installed")
def test_first_large_batch_imports_scipy_sparse_once():
    out = _python("""
        import json, sys

        looked_up = []

        class Probe:
            # Records every import the interpreter has to look for;
            # a module already in sys.modules is never looked up.
            def find_spec(self, name, path=None, target=None):
                looked_up.append(name)
                return None

        sys.meta_path.insert(0, Probe())
    """, SOLVE, f"""
        from repro.simulation import flows
        seen = {{"import": "scipy" in sys.modules,
                 "have_sparse": have_sparse()}}
        seen["small"] = solve({BIG[:64]!r})[0]
        seen["after_small"] = "scipy" in sys.modules
        seen["big"] = solve({BIG!r})[0]
        seen["again"] = solve({BIG!r})[0]
        seen["sparse_imports"] = looked_up.count("scipy.sparse")
        seen["bound"] = flows._scipy_sparse is sys.modules["scipy.sparse"]
        print(json.dumps(seen))
    """)
    assert out == {"import": False, "have_sparse": True, "small": "dense",
                   "after_small": False, "big": "sparse", "again": "sparse",
                   "sparse_imports": 1, "bound": True}
