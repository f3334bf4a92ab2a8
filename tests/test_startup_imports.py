"""Start-up loads only what a command runs.

Importing a package ``__init__`` runs it, so a package that re-exports
a whole subsystem makes every import of one of its modules load the
rest.  The packages resolve their re-exports lazily instead (PEP 562,
``repro._lazy``), ``repro.cli`` imports each command's code in its
handler, and scipy loads with the first flow batch that needs it.

These guards check *which modules are loaded*, never how long that
takes, so they hold on any host.  Each check runs in a fresh
interpreter: the test process has long since imported everything.

The rule they pin: laziness removes imports, it never moves them.
Every module that an entry call runs must already be loaded by the
import that makes the call available, so no import cost lands inside
the call itself (:func:`test_entry_call_imports_nothing_and_runs_only_loaded_code`).
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Packages whose import must not come with ``import repro.cli``.
NOT_AT_CLI_IMPORT = ("scipy", "repro.serving", "repro.faults",
                     "repro.core.topoplan", "repro.core.substrates")


def _python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is
    JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _under(modules, package: str):
    return sorted(m for m in modules
                  if m == package or m.startswith(package + "."))


def test_importing_the_cli_loads_no_subsystem():
    loaded = _python("""
        import json, sys
        import repro.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    for package in NOT_AT_CLI_IMPORT:
        assert _under(loaded, package) == [], package


@pytest.mark.parametrize("command", ["plan", "serve"])
def test_help_lists_every_builtin_substrate(command):
    out = _python(f"""
        import contextlib, io, json
        from repro.cli import main
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            try:
                main([{command!r}, "--help"])
            except SystemExit:
                pass
        from repro.core.substrates import available_substrates
        print(json.dumps({{"help": text.getvalue(),
                           "names": list(available_substrates())}}))
    """)
    assert len(out["names"]) >= 6
    for name in out["names"]:
        assert name in out["help"], name


@pytest.mark.parametrize("argv", [
    ["tables"], ["fig2", "--model", "alexnet", "--scales", "128"],
    ["headline"]], ids=lambda a: a[0])
def test_paper_commands_load_no_scipy(argv):
    out = _python(f"""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main({argv!r})
        print(json.dumps({{"rc": rc, "modules": sorted(sys.modules)}}))
    """)
    assert out["rc"] == 0
    assert _under(out["modules"], "scipy") == []
    assert _under(out["modules"], "repro.core.substrates") == []


def _packages():
    return ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__,
                                                     "repro.")
        if info.ispkg)


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves_lazily(package):
    """Each ``__all__`` name resolves through ``getattr``, ``from pkg
    import *`` and ``dir(pkg)``, nothing is cached in the package
    (so a wrapper installed on a submodule is what the package
    answers), and an unknown name raises ``AttributeError``."""
    out = _python(f"""
        import importlib, json, types
        pkg = importlib.import_module({package!r})
        before = set(vars(pkg))
        missing = [n for n in pkg.__all__ if n not in dir(pkg)]
        resolved = {{n: getattr(pkg, n) is not None for n in pkg.__all__}}
        cached = [n for n in pkg.__all__
                  if n not in before and n in vars(pkg)
                  and not isinstance(vars(pkg)[n], types.ModuleType)]
        star = {{}}
        exec(f"from {package} import *", star)
        try:
            getattr(pkg, "no_such_name")
            unknown = "resolved"
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps({{
            "all": list(pkg.__all__), "missing_from_dir": missing,
            "resolved": sorted(n for n, ok in resolved.items() if ok),
            "cached": cached, "star": sorted(set(star) - {{"__builtins__"}}),
            "unknown": unknown}}))
    """)
    assert out["all"], f"{package} exports nothing"
    assert len(out["all"]) == len(set(out["all"])), "duplicate exports"
    assert out["missing_from_dir"] == []
    assert out["resolved"] == sorted(out["all"])
    assert out["cached"] == []
    assert out["star"] == sorted(out["all"])
    assert out["unknown"] == \
        f"module {package!r} has no attribute 'no_such_name'"


#: Four entry calls at tiny sizes: (entry import + inputs, the call).
ENTRY_CALLS = {
    "fig2-headline": ("""
        import repro.analysis as entry
    """, """
        panels = entry.figure2(models=("alexnet", "googlenet"),
                               scales=(16, 32), fidelity="analytic")
        entry.headline_reductions(panels)
    """),
    "serve-electrical-ring": ("""
        import repro.serving as entry
        jobs = entry.poisson_traffic(num_jobs=30, arrival_rate=200.0,
                                     seed=0)
    """, """
        engine = entry.ServingEngine(
            substrate_name="electrical-ring", capacity=32, policy="fifo",
            placement="contiguous", collectives=entry.adaptive_policy())
        engine.run(jobs)
    """),
    "serve-optical-ring-faults": ("""
        import repro.serving as entry
        from repro.faults import FaultPlan
        jobs = entry.poisson_traffic(num_jobs=30, arrival_rate=4.0, seed=0)
        faults = FaultPlan.poisson(
            duration=jobs[-1].arrival_time, num_nodes=32, seed=1,
            link_rate=0.5, node_rate=0.5, mean_repair=0.5)
    """, """
        engine = entry.ServingEngine(
            substrate_name="optical-ring", capacity=32, policy="fifo",
            placement="contiguous", collectives=entry.adaptive_policy())
        engine.run(jobs, faults=faults, retry=entry.RetryPolicy())
    """),
    "coplan": ("""
        import repro.core.topoplan as entry
    """, """
        entry.strategy_plan_table(8, "alexnet")
    """),
}


@pytest.mark.parametrize("name", sorted(ENTRY_CALLS))
def test_entry_call_imports_nothing_and_runs_only_loaded_code(name):
    """After the entry package is imported (and the call's inputs are
    built), the call imports no module, and every ``repro`` module it
    runs code in was loaded by that import."""
    setup, call = ENTRY_CALLS[name]
    out = _python(textwrap.dedent(setup) + textwrap.dedent("""
        import json, sys
        loaded = set(sys.modules)
        ran = set()

        def probe(frame, event, arg):
            if event == "call":
                ran.add(frame.f_globals.get("__name__"))

        sys.setprofile(probe)
        try:
    """) + textwrap.indent(textwrap.dedent(call), "    ") + textwrap.dedent("""
        finally:
            sys.setprofile(None)
        print(json.dumps({
            "imported": sorted(set(sys.modules) - loaded),
            "ran": sorted(m for m in ran if m and m.startswith("repro")),
            "unloaded": sorted(m for m in ran
                               if m and m.startswith("repro")
                               and m not in loaded)}))
    """))
    assert out["ran"], "the probe saw no library code run"
    assert out["imported"] == []
    assert out["unloaded"] == []
