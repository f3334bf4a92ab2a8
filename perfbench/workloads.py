"""The four benchmark workloads, driven through the library's public
entry points.

Each workload splits into ``prepare(seed)`` — imports plus input
construction, the part ``setup_s`` measures — and ``run(inputs)``, the
part ``wall_s`` measures.  ``run`` looks library functions up through
their modules at call time, so the tracer's wrappers see the calls.  ``outputs`` reduces a run's result to its
simulated outputs (JSON-ready, floats kept exact) for the digest and
the comparison with ``expected/``; ``invariants`` lists violations of
properties that hold at every seed; ``sim_metrics`` derives the
simulated per-layer metrics.  ``tiny=True`` selects the small inputs
the self-tests use; the layers exercised are the same.
"""

from __future__ import annotations

import hashlib
import json
import math
from statistics import fmean
from typing import Any, Dict, List

FIG2_MODELS = ("alexnet", "vgg16", "resnet50", "googlenet")
FIG2_SCALES = (128, 256, 512, 1024)
ALGORITHMS = ("e-ring", "rd", "o-ring", "wrht")
#: The paper's headline reductions in percent (abstract and §4).
PAPER_ELECTRICAL_PCT = 75.76
PAPER_OPTICAL_PCT = 91.86


def canonical(obj: Any) -> str:
    """Canonical JSON (sorted keys, shortest exact float repr)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def digest(obj: Any) -> str:
    """SHA-256 of :func:`canonical` — equal iff the outputs are equal."""
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


class PaperFig2:
    """Fig. 2 at analytic fidelity on the paper's grid, then the
    headline reductions over those panels (the ``fig2`` and
    ``headline`` commands)."""

    name = "paper_fig2"
    seeded = False

    def __init__(self, tiny: bool = False) -> None:
        self.models = ("alexnet", "googlenet") if tiny else FIG2_MODELS
        self.scales = (16, 32) if tiny else FIG2_SCALES

    def prepare(self, seed: int) -> Dict[str, Any]:
        import repro.analysis
        return {"analysis": repro.analysis}

    def run(self, inputs: Dict[str, Any]) -> Any:
        analysis = inputs["analysis"]
        panels = analysis.figure2(models=self.models, scales=self.scales,
                                  fidelity="analytic")
        return panels, analysis.headline_reductions(panels)

    def outputs(self, inputs: Dict[str, Any], result: Any) -> Dict[str, Any]:
        panels, head = result
        cells = [[model, algo, n, float(t)]
                 for model, panel in panels.items()
                 for algo in ALGORITHMS
                 for n, t in zip(panel.scales, panel.times[algo])]
        return {"cells": cells,
                "headline": {
                    "electrical": float(head.electrical_reduction),
                    "optical": float(head.optical_reduction),
                    "electrical_pooled":
                        float(head.electrical_pooled_reduction),
                    "per_baseline": {k: float(v) for k, v
                                     in head.per_baseline.items()}}}

    def invariants(self, inputs: Dict[str, Any], out: Dict[str, Any],
                   result: Any) -> List[str]:
        bad = [f"cell {m}/{a}/N={n} = {t!r} is not finite and positive"
               for m, a, n, t in out["cells"]
               if not (math.isfinite(t) and t > 0)]
        want = len(self.models) * len(self.scales) * len(ALGORITHMS)
        if len(out["cells"]) != want:
            bad.append(f"{len(out['cells'])} Fig. 2 cells, expected {want}")
        return bad

    def sim_metrics(self, inputs: Dict[str, Any], out: Dict[str, Any],
                    result: Any) -> Dict[str, float]:
        head = out["headline"]
        return {"paper_gap_pp": max(
            abs(100 * head["electrical"] - PAPER_ELECTRICAL_PCT),
            abs(100 * head["optical"] - PAPER_OPTICAL_PCT))}


class Serve:
    """A seeded ``poisson_traffic`` stream (default 4/8/16-wide
    training + inference mix) through ``ServingEngine`` on a 32-node
    fabric with FIFO, contiguous placement and the size-adaptive
    collective switch; optionally a seeded link + node
    ``FaultPlan.poisson`` with the default ``RetryPolicy``."""

    seeded = True
    capacity = 32
    mean_repair_s = 0.5

    def __init__(self, name: str, substrate: str, jobs: int, rate: float,
                 fault_rate: float = 0.0) -> None:
        self.name = name
        self.substrate = substrate
        self.jobs = jobs
        self.rate = rate
        self.fault_rate = fault_rate

    def prepare(self, seed: int) -> Dict[str, Any]:
        import numpy as np
        import repro.serving
        from repro.faults import FaultPlan
        from repro.serving import RetryPolicy, poisson_traffic

        # Independent streams for traffic and faults, both from --seed.
        traffic_seq, fault_seq = np.random.SeedSequence(seed).spawn(2)
        jobs = poisson_traffic(num_jobs=self.jobs, arrival_rate=self.rate,
                               rng=np.random.default_rng(traffic_seq))
        faults = retry = None
        if self.fault_rate > 0:
            faults = FaultPlan.poisson(
                duration=jobs[-1].arrival_time, num_nodes=self.capacity,
                rng=np.random.default_rng(fault_seq),
                link_rate=self.fault_rate / 2, node_rate=self.fault_rate / 2,
                mean_repair=self.mean_repair_s)
            retry = RetryPolicy()
        return {"jobs": jobs, "faults": faults, "retry": retry,
                "serving": repro.serving}

    def run(self, inputs: Dict[str, Any]) -> Any:
        serving = inputs["serving"]
        engine = serving.ServingEngine(
            substrate_name=self.substrate, capacity=self.capacity,
            policy="fifo", placement="contiguous",
            collectives=serving.adaptive_policy())
        return engine.run(inputs["jobs"], faults=inputs["faults"],
                          retry=inputs["retry"])

    def outputs(self, inputs: Dict[str, Any], report: Any) -> Dict[str, Any]:
        jobs = sorted([r.job.job_id, r.start_time, r.completion_time,
                       r.attempts] for r in report.records)
        return {"submitted": len(inputs["jobs"]),
                "headline": {k: float(v)
                             for k, v in report.headline().items()},
                "jobs_sha256": digest(jobs),
                "failed_ids": sorted(j.job_id for j in report.failed_jobs)}

    def invariants(self, inputs: Dict[str, Any], out: Dict[str, Any],
                   report: Any) -> List[str]:
        submitted = [j.job_id for j in inputs["jobs"]]
        done = [r.job.job_id for r in report.records]
        failed = out["failed_ids"]
        bad = []
        if (len(done) + len(failed) != len(submitted)
                or set(done) | set(failed) != set(submitted)):
            bad.append("completed and failed jobs are not a disjoint "
                       "cover of the submitted jobs")
        if self.fault_rate == 0 and failed:
            bad.append(f"{len(failed)} jobs failed without faults")
        return bad

    def sim_metrics(self, inputs: Dict[str, Any], out: Dict[str, Any],
                    report: Any) -> Dict[str, float]:
        head = out["headline"]
        recs = report.records
        return {
            "sim_jct_p50_s": head["jct_p50_s"],
            "sim_jct_p99_s": head["jct_p99_s"],
            "sim_jobs_per_s": head["throughput_jobs_per_s"],
            "sim_failed_frac": len(out["failed_ids"]) / out["submitted"],
            "sim.queue_wait_mean_s": fmean(r.wait_time for r in recs),
            # Mean over jobs of the contention slowdown they ran under:
            # service time over the solo time of their steps.
            "sim.slowdown_mean": fmean(
                r.service_time / (r.job.num_steps * r.step_time)
                for r in recs),
            "sim.preemptions": float(report.preemptions),
        }


class CoplanStrategies:
    """``strategy_plan_table(32, model)`` for each of the four paper
    models: the ``plan --strategy auto`` search at its N limit."""

    name = "coplan_strategies"
    seeded = False

    def __init__(self, tiny: bool = False) -> None:
        self.nodes = 8 if tiny else 32
        self.models = ("alexnet",) if tiny else FIG2_MODELS

    def prepare(self, seed: int) -> Dict[str, Any]:
        import repro.core.topoplan
        return {"topoplan": repro.core.topoplan}

    def run(self, inputs: Dict[str, Any]) -> Any:
        topoplan = inputs["topoplan"]
        return [(m, topoplan.strategy_plan_table(self.nodes, m))
                for m in self.models]

    def outputs(self, inputs: Dict[str, Any], result: Any) -> Dict[str, Any]:
        return {"rows": [[m, p.label, float(p.predicted_time), p.num_steps]
                         for m, table in result for p in table]}

    def invariants(self, inputs: Dict[str, Any], out: Dict[str, Any],
                   result: Any) -> List[str]:
        bad = [f"{m} {label}: predicted time {t!r}"
               for m, label, t, _ in out["rows"]
               if not (math.isfinite(t) and t > 0)]
        models = {r[0] for r in out["rows"]}
        bad += [f"{m}: empty plan table" for m in self.models
                if m not in models]
        return bad

    def sim_metrics(self, inputs: Dict[str, Any], out: Dict[str, Any],
                    result: Any) -> Dict[str, float]:
        best = [min(table, key=lambda p: p.predicted_time)
                for _, table in result]
        rows = [p for _, table in result for p in table]
        return {
            "sim_plan_s": sum(p.predicted_time for p in best),
            "topoplan.simulated_frac":
                sum(p.report is not None for p in rows) / len(rows),
            "sim.ocs_reconfigs": float(sum(
                p.program.num_reconfigurations for p in best
                if p.program is not None)),
        }


def get(name: str, tiny: bool = False) -> Any:
    """The workload called ``name`` (full size unless ``tiny``)."""
    if name == "paper_fig2":
        return PaperFig2(tiny)
    if name == "serve_backlog":
        return Serve(name, "electrical-ring", jobs=60 if tiny else 3000,
                     rate=200.0)
    if name == "serve_optical_faults":
        return Serve(name, "optical-ring", jobs=60 if tiny else 2000,
                     rate=4.0, fault_rate=1.0)
    if name == "coplan_strategies":
        return CoplanStrategies(tiny)
    raise KeyError(f"unknown workload {name!r}")
