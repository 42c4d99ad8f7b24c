"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload runs the program's default execution configuration (the
``REPRO_*`` knobs are cleared by ``run.py`` before ``repro`` is imported).
One pass of a workload is a fixed list of units; a run repeats passes until
its time is up. Repeat ``r`` of every unit draws its inputs from
``input_seed(seed, r)``, so a run averages over several seeded inputs
while the same ``--seed`` always yields the same sequence of inputs.

- ``fig8-cnn``: the paper's Figure 8 on cifar10 (CNN) — live RS, TPE, HB
  and BOHB tuning, noiseless and noisy (1% subsampling, epsilon = 100).
  One unit is one method's noiseless + noisy pair of tuning runs.
- ``fig3-text``: a bank-driven Figure 3 on stackoverflow and reddit
  (LSTM) — the config bank trained to max rounds with a full-pool
  evaluation at each checkpoint, then bootstrapped RS under subsampled
  evaluation. One unit is one dataset's bank and bootstrap.
- ``serve-small-jobs``: a wave of tiny tuning jobs submitted through
  ``JobQueue.submit`` and drained by an in-process ``TuningService`` with
  one slot per CPU (a closed loop: each slot takes the next job as soon
  as it frees). One unit is one wave in a fresh service root.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

#: One scale for every workload: the CLI's default preset.
PRESET = "test"

#: Serve jobs: every (dataset, method) pair appears this many times a wave.
SERVE_REPEATS = 4
SERVE_DATASETS = ("femnist", "reddit")
SERVE_METHODS = ("rs", "hb", "tpe")
SERVE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Tiny jobs: two configs on a budget of one config's maximum rounds, so
#: queue, journal, checkpoint and per-job set-up costs are a large share.
SERVE_K = 2
SERVE_BUDGET_CONFIGS = 1


def input_seed(seed: int, repeat: int) -> int:
    """The seed of repeat ``repeat``'s inputs in a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, repeat]).generate_state(1)[0] % 2**31)


@dataclass
class UnitResult:
    """What one unit of work produced, as seen from outside the program."""

    seconds: float
    digest: str
    attempted: int
    failed: int
    final_errors: List[float]
    problems: List[str] = field(default_factory=list)
    #: Per-job lease-to-DONE seconds (serve only).
    latencies: List[float] = field(default_factory=list)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _valid_error(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


class Fig8Cnn:
    """Figure 8 on cifar10: live tuning with the CNN kernels."""

    name = "fig8-cnn"
    units = ("rs", "tpe", "hb", "bohb")
    #: A job is one method's noiseless + noisy pair of tuning runs.
    jobs_per_pass = len(units)

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self._ctx = self._ctx_repeat = None
        self._context(0)

    def _context(self, repeat: int):
        """Repeat ``repeat``'s context, its dataset generated before the
        unit is timed (one context is kept at a time)."""
        from repro.experiments import ExperimentContext

        if self._ctx_repeat != repeat:
            self._ctx = ExperimentContext(preset=PRESET, seed=input_seed(self.seed, repeat))
            self._ctx.dataset("cifar10")
            self._ctx_repeat = repeat
        return self._ctx

    def run(self, unit: str, repeat: int) -> UnitResult:
        from repro.experiments import run_method_comparison

        ctx = self._context(repeat)
        start = time.perf_counter()
        records = run_method_comparison(ctx, ("cifar10",), methods=(unit,), n_trials=1)
        seconds = time.perf_counter() - start
        problems = []
        for record in records:
            where = f"{record.get('method')}/{record.get('setting')}"
            if record.get("failed"):
                problems.append(f"{where} failed: {record.get('error')}")
            elif not _valid_error(record.get("final_full_error")) or not all(
                _valid_error(e) for e in record.get("full_errors", ())
            ):
                problems.append(f"{where} has an error outside [0, 1]")
        return UnitResult(
            seconds=seconds,
            digest=_digest([r.to_builtin() for r in records]),
            attempted=len(records),
            failed=len(problems),
            final_errors=[r.final_full_error for r in records if not r.get("failed")],
            problems=problems,
        )


class Fig3Text:
    """Bank-driven Figure 3 on the two LSTM datasets."""

    name = "fig3-text"
    units = ("stackoverflow", "reddit")
    #: A job is one dataset's config bank build and RS bootstrap.
    jobs_per_pass = len(units)

    def __init__(self, seed: int, scratch: str):
        from repro.experiments import ExperimentContext

        self.seed = seed
        ctx = ExperimentContext(preset=PRESET, seed=input_seed(seed, 0))
        for name in self.units:
            ctx.dataset(name)

    def run(self, unit: str, repeat: int) -> UnitResult:
        from repro.experiments import ExperimentContext, run_figure3

        start = time.perf_counter()
        # A fresh context per unit: contexts memoize their banks.
        ctx = ExperimentContext(preset=PRESET, seed=input_seed(self.seed, repeat))
        records = run_figure3(ctx, dataset_names=(unit,))
        seconds = time.perf_counter() - start
        problems = []
        for record in records:
            values = [record.get(k) for k in ("q25", "median", "q75", "best_hps")]
            if record.get("failed") or not all(_valid_error(v) for v in values):
                problems.append(
                    f"{unit}/subsample={record.get('subsample_count')} has an error "
                    "outside [0, 1]"
                )
        return UnitResult(
            seconds=seconds,
            digest=_digest([r.to_builtin() for r in records]),
            attempted=len(records),
            failed=len(problems),
            final_errors=[r.median for r in records],
            problems=problems,
        )


class ServeSmallJobs:
    """A backlog of tiny jobs drained by the tuning-service daemon."""

    name = "serve-small-jobs"
    units = ("wave",)
    jobs_per_pass = len(SERVE_DATASETS) * len(SERVE_METHODS) * SERVE_REPEATS

    def __init__(self, seed: int, scratch: str):
        from repro.service import TuningService

        self.seed = seed
        self.scratch = scratch
        self.n_slots = os.cpu_count() or 1
        # Service construction is part of set-up; each wave then starts
        # from an empty root so every wave's journal history is the same.
        root = os.path.join(scratch, "serve-setup")
        TuningService(root, n_slots=self.n_slots)
        shutil.rmtree(root, ignore_errors=True)

    @staticmethod
    def job_mix(seed: int) -> List[Dict]:
        """One wave's submissions: every (dataset, method) pair
        ``SERVE_REPEATS`` times, with tenant, trial index and order drawn
        from ``seed`` (which also seeds each job's datasets)."""
        from repro.datasets.registry import get_scale

        rng = np.random.default_rng(seed)
        budget = SERVE_BUDGET_CONFIGS * get_scale(PRESET).max_rounds_per_config
        jobs = []
        for dataset in SERVE_DATASETS:
            for method in SERVE_METHODS:
                for _ in range(SERVE_REPEATS):
                    jobs.append({
                        "tenant": SERVE_TENANTS[int(rng.integers(len(SERVE_TENANTS)))],
                        "spec": {
                            "dataset": dataset, "method": method, "preset": PRESET,
                            "seed": seed, "trial": int(rng.integers(1000)),
                            "k": SERVE_K, "total_budget": budget,
                        },
                    })
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def run(self, unit: str, repeat: int) -> UnitResult:
        from repro.service import DONE, TuningService

        jobs = self.job_mix(input_seed(self.seed, repeat))
        root = os.path.join(self.scratch, f"serve-wave-{repeat}")
        shutil.rmtree(root, ignore_errors=True)
        service = TuningService(root, n_slots=self.n_slots)
        leased_at: Dict[str, float] = {}
        done_at: Dict[str, float] = {}
        queue = service.queue
        lease, complete = queue.lease, queue.complete

        # Timestamps at the queue's public boundary, on this instance only.
        def timed_lease(worker):
            job = lease(worker)
            if job is not None:
                leased_at.setdefault(job["job_id"], time.perf_counter())
            return job

        def timed_complete(job_id, worker):
            complete(job_id, worker)
            done_at[job_id] = time.perf_counter()

        queue.lease, queue.complete = timed_lease, timed_complete
        start = time.perf_counter()
        ids = [queue.submit(job["spec"], tenant=job["tenant"]) for job in jobs]
        service.run(once=True)
        seconds = time.perf_counter() - start

        problems, errors, results = [], [], []
        states = {job["job_id"]: job["state"] for job in queue.jobs()}
        for job_id in ids:
            if states.get(job_id) != DONE:
                problems.append(f"job {job_id} ended {states.get(job_id)}")
                continue
            try:
                with open(os.path.join(root, "results", f"{job_id}.json"), "rb") as fh:
                    raw = fh.read()
                record = json.loads(raw)
            except (OSError, ValueError) as exc:
                problems.append(f"job {job_id} result unreadable: {exc}")
                continue
            if not _valid_error(record.get("final_full_error")):
                problems.append(f"job {job_id} final error outside [0, 1]")
                continue
            errors.append(record["final_full_error"])
            results.append(raw.decode())
        shutil.rmtree(root, ignore_errors=True)
        return UnitResult(
            seconds=seconds,
            digest=_digest(results),
            attempted=len(ids),
            failed=len(problems),
            final_errors=errors,
            problems=problems,
            latencies=[done_at[j] - leased_at[j] for j in ids
                       if j in done_at and j in leased_at],
        )


WORKLOADS = {cls.name: cls for cls in (Fig8Cnn, Fig3Text, ServeSmallJobs)}


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def summarize(results: Dict[str, List[UnitResult]], jobs_per_pass: int) -> Dict[str, float]:
    """End-to-end figures of one run from its unit results (each unit's
    list holds its repeats in order).

    ``work_s`` is one pass: the sum over units of each unit's median time.
    Job latencies are the per-job samples where the workload measures them
    (serve), else each unit's median time (one job per unit). The final
    error is the median over repeat 0 only, so it depends on the seed and
    the code, not on how many repeats fit in the run.
    """
    unit_medians = [median([r.seconds for r in rs]) for rs in results.values()]
    work_s = sum(unit_medians)
    samples = [lat for rs in results.values() for r in rs for lat in r.latencies]
    samples = samples or unit_medians
    finals = [e for rs in results.values() for e in rs[0].final_errors]
    return {
        "work_s": work_s,
        "jobs_per_s": jobs_per_pass / work_s,
        "job_latency_p50_s": float(np.percentile(samples, 50)),
        "job_latency_p90_s": float(np.percentile(samples, 90)),
        "latency_samples": len(samples),
        "final_error": median(finals) if finals else float("nan"),
    }
