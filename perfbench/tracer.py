"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``repro`` layers from
here, the benchmark's own files, so the program under test is unchanged.
Each call of a wrapped function becomes one span: name, start, end, the
span that caused it (same thread), and the run or job id it belongs to.
Spans stay in memory and are written out once, when the run ends.

Self time is a span's duration minus the durations of its direct children,
so nested wrapped calls are never counted twice. Counts are recorded at the
same boundaries; a call nested inside another call of the same metric (a
subclass calling ``super()``, a batch API falling back to its per-item
loop) counts once, at the outermost call.

Nothing is installed unless :meth:`Tracer.install` is called, and
:meth:`Tracer.uninstall` restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: The ``repro.service.queue.JobQueue`` operations timed per call.
QUEUE_OPS = ("submit", "lease", "mark_running", "heartbeat", "complete",
             "recover_expired", "counts")


def _len_arg(index: int, name: str) -> Callable:
    """Counter value: ``len()`` of one positional-or-keyword argument."""

    def count(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs.get(name, ())
        return len(value)

    return count


def _stacked_models(args, kwargs, result):
    n_models = args[3] if len(args) > 3 else kwargs.get("n_models")
    return n_models if n_models is not None else args[0].n_copies


def _slab_rows(args, kwargs, result):
    groups = args[1] if len(args) > 1 else kwargs["groups"]
    return sum(len(group.clients) for group in groups)


def _checkpoint_bytes(args, kwargs, result):
    return os.path.getsize(result)


# One row per traced target:
#   (module, attribute path, metric key, {counter: value fn or 1}).
# A metric key ``k`` yields ``<k>_s`` (self time); counters are reported
# under their own names. Attribute paths "Class.method" patch the class's
# own definition; bare names patch the function in every ``repro`` module
# that holds it (``from x import f`` copies included).
ONE = 1
TARGETS: List[Tuple[str, str, str, Dict]] = [
    # repro.nn: serial (layers/recurrent) and stacked kernels of each kind.
    ("repro.nn.layers", "Conv2D.forward", "nn.conv.fwd", {"nn.conv.calls": ONE}),
    ("repro.nn.stacked", "StackedConv2D.forward", "nn.conv.fwd", {"nn.conv.calls": ONE}),
    ("repro.nn.stacked", "StackedConv2D.eval_forward", "nn.conv.fwd", {"nn.conv.calls": ONE}),
    ("repro.nn.layers", "Conv2D.backward", "nn.conv.bwd", {}),
    ("repro.nn.stacked", "StackedConv2D.backward", "nn.conv.bwd", {}),
    ("repro.nn.functional", "im2col", "nn.im2col", {}),
    ("repro.nn.functional", "col2im", "nn.col2im", {}),
    ("repro.nn.layers", "MaxPool2D.forward", "nn.pool.fwd", {}),
    ("repro.nn.stacked", "StackedMaxPool2D.forward", "nn.pool.fwd", {}),
    ("repro.nn.stacked", "StackedMaxPool2D.eval_forward", "nn.pool.fwd", {}),
    ("repro.nn.layers", "MaxPool2D.backward", "nn.pool.bwd", {}),
    ("repro.nn.stacked", "StackedMaxPool2D.backward", "nn.pool.bwd", {}),
    ("repro.nn.recurrent", "LSTM.forward", "nn.lstm.fwd", {"nn.lstm.calls": ONE}),
    ("repro.nn.stacked", "StackedLSTM.forward", "nn.lstm.fwd", {"nn.lstm.calls": ONE}),
    ("repro.nn.stacked", "StackedLSTM.eval_forward", "nn.lstm.fwd", {"nn.lstm.calls": ONE}),
    ("repro.nn.recurrent", "LSTM.backward", "nn.lstm.bwd", {}),
    ("repro.nn.stacked", "StackedLSTM.backward", "nn.lstm.bwd", {}),
    ("repro.nn.layers", "Linear.forward", "nn.dense.fwd", {}),
    ("repro.nn.stacked", "StackedLinear.forward", "nn.dense.fwd", {}),
    ("repro.nn.stacked", "StackedLinear.eval_forward", "nn.dense.fwd", {}),
    ("repro.nn.layers", "Linear.backward", "nn.dense.bwd", {}),
    ("repro.nn.stacked", "StackedLinear.backward", "nn.dense.bwd", {}),
    ("repro.nn.losses", "mse_loss", "nn.loss", {}),
    ("repro.nn.losses", "softmax_cross_entropy", "nn.loss", {}),
    ("repro.nn.losses", "sequence_cross_entropy", "nn.loss", {}),
    ("repro.nn.stacked", "stacked_mse", "nn.loss", {}),
    ("repro.nn.stacked", "stacked_softmax_cross_entropy", "nn.loss", {}),
    ("repro.nn.stacked", "stacked_sequence_cross_entropy", "nn.loss", {}),
    ("repro.nn.optim", "SGD.step", "nn.optim.step", {"nn.optim.steps": ONE}),
    ("repro.nn.optim", "Adam.step", "nn.optim.step", {"nn.optim.steps": ONE}),
    ("repro.nn.optim", "FlatSGD.step", "nn.optim.step", {"nn.optim.steps": ONE}),
    ("repro.nn.optim", "fused_sgd_step", "nn.optim.step", {"nn.optim.steps": ONE}),
    ("repro.nn.module", "set_flat_params", "nn.params_io", {}),
    ("repro.nn.module", "get_flat_params", "nn.params_io", {}),
    ("repro.nn.module", "Module.zero_grad", "nn.params_io", {}),
    ("repro.nn.stacked", "StackedModel.zero_grad", "nn.params_io", {}),
    ("repro.nn.stacked", "StackedModel.forward_eval", "nn.eval_forward", {}),
    # repro.fl
    ("repro.fl.trainer", "FederatedTrainer.run_round", "fl.round", {"fl.rounds": ONE}),
    ("repro.fl.fused", "FusedTrainerPool.advance", "fl.round",
     {"fl.rounds": lambda a, k, r: sum(a[2] if len(a) > 2 else k["rounds"])}),
    ("repro.fl.client", "ClientTrainer.train", "fl.client_train", {"fl.client_trains": ONE}),
    ("repro.fl.cohort", "CohortTrainer.train_cohort", "fl.client_train",
     {"fl.client_trains": _len_arg(2, "clients")}),
    ("repro.fl.cohort", "SlabTrainer.train_groups", "fl.slab_train", {"fl.slab_rows": _slab_rows}),
    ("repro.fl.evaluation", "client_error_rates", "fl.eval",
     {"fl.eval_calls": ONE, "fl.eval_models": ONE}),
    ("repro.fl.evaluation", "stacked_client_error_rates", "fl.eval",
     {"fl.eval_calls": ONE, "fl.eval_models": _stacked_models}),
    ("repro.fl.evaluation", "StackedEvalEngine.error_rates_many", "fl.eval",
     {"fl.eval_calls": ONE, "fl.eval_models": _len_arg(2, "params_rows")}),
    ("repro.fl.evaluation", "fused_group_rates", "fl.eval",
     {"fl.eval_calls": ONE, "fl.eval_models": _len_arg(1, "models")}),
    ("repro.fl.evaluation", "evaluate_model", "fl.eval",
     {"fl.eval_calls": ONE, "fl.eval_models": ONE}),
    ("repro.fl.fused", "FusedTrainerPool.evaluate", "fl.eval",
     {"fl.eval_calls": ONE, "fl.eval_models": _len_arg(1, "trainers")}),
    # repro.core
    ("repro.core.tuner", "BaseTuner.run", "core.tuner", {"core.runs": ONE}),
    ("repro.core.evaluator", "TrialRunner.advance", "core.advance_many",
     {"core.advance_batches": ONE, "core.advance_trials": ONE}),
    ("repro.core.evaluator", "TrialRunner.advance_many", "core.advance_many",
     {"core.advance_batches": ONE, "core.advance_trials": _len_arg(1, "requests")}),
    ("repro.core.evaluator", "FederatedTrialRunner.advance_many", "core.advance_many",
     {"core.advance_batches": ONE, "core.advance_trials": _len_arg(1, "requests")}),
    ("repro.core.evaluator", "TrialRunner.error_rates_many", "core.error_rates_many",
     {"core.rate_requests": _len_arg(1, "trials")}),
    ("repro.core.evaluator", "FederatedTrialRunner.error_rates", "core.error_rates_many",
     {"core.rate_requests": ONE}),
    ("repro.core.evaluator", "FederatedTrialRunner.error_rates_many", "core.error_rates_many",
     {"core.rate_requests": _len_arg(1, "trials")}),
    ("repro.experiments.bank", "BankTrialRunner.error_rates", "core.error_rates_many",
     {"core.rate_requests": ONE}),
    ("repro.core.noise", "NoisyEvaluator.evaluate", "core.noise", {"core.noise_calls": ONE}),
    ("repro.core.noise", "NoisyEvaluator.evaluate_repeated", "core.noise",
     {"core.noise_calls": ONE}),
    # repro.experiments / repro.datasets
    ("repro.experiments.bank", "ConfigBank.build", "experiments.bank_build",
     {"experiments.bank_configs": lambda a, k, r: r.n_configs}),
    ("repro.experiments.fig_subsampling", "bootstrap_rs_final_errors",
     "experiments.bootstrap", {}),
    ("repro.experiments.fig_subsampling", "bootstrap_rs_curves", "experiments.bootstrap", {}),
    ("repro.datasets.registry", "load_dataset", "datasets.load", {"datasets.loads": ONE}),
    # repro.engine
    ("repro.engine.executor", "SerialExecutor.map", "engine.executor_map",
     {"engine.executor_maps": ONE}),
    ("repro.engine.executor", "ProcessExecutor.map", "engine.executor_map",
     {"engine.executor_maps": ONE}),
    ("repro.engine.executor", "WorkerCapExecutor.map", "engine.executor_map",
     {"engine.executor_maps": ONE}),
    ("repro.engine.checkpoint", "save_checkpoint", "engine.checkpoint",
     {"engine.checkpoint_writes": ONE, "engine.checkpoint_bytes": _checkpoint_bytes}),
    ("repro.engine.atomicio", "atomic_write_bytes", "engine.atomic_write",
     {"engine.atomic_writes": ONE}),
    # repro.service
    *[("repro.service.queue", f"JobQueue.{op}", f"service.queue.{op}", {})
      for op in QUEUE_OPS],
    ("repro.service.journal", "FileLock.__enter__", "service.lock_wait",
     {"service.lock_acquires": ONE}),
    ("repro.service.journal", "Journal.append", "service.journal.append",
     {"service.journal.appends": ONE}),
    ("repro.service.journal", "Journal.replay", "service.journal.replay",
     {"service.journal.replays": ONE,
      "service.journal.entries_replayed": lambda a, k, r: len(r)}),
    ("repro.service.store", "ExperimentStore.put", "service.store", {"service.store_writes": ONE}),
    ("repro.service.store", "ExperimentStore.append_curve_points", "service.store",
     {"service.store_writes": ONE}),
    ("repro.service.worker", "execute_job", "service.job_setup", {}),
]

#: Models evaluated under this key count against its rate requests, for the
#: share of rate requests answered without evaluating a model.
_RATE_KEY = "core.error_rates_many"


class _TracedFunction:
    """A traced module-level function that hashes and compares equal to
    the function it wraps, so lookups keyed by the original (the program
    maps each loss function to its stacked counterpart) behave the same
    under tracing."""

    def __init__(self, traced: Callable, original: Callable):
        functools.update_wrapper(self, original)
        self._traced = traced

    def __call__(self, *args, **kwargs):
        return self._traced(*args, **kwargs)

    def __eq__(self, other) -> bool:
        return other is self or other is self.__wrapped__

    def __hash__(self) -> int:
        return hash(self.__wrapped__)


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._intern_lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: List[Tuple[object, str, object]] = []
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.contexts: List[str] = []
        self._context_index: Dict[str, int] = {}
        # (span id, name index, start, end, parent span id or -1, context index)
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.run_id = "run"

    # -- recording --------------------------------------------------------------
    def _intern(self, table: List[str], index: Dict[str, int], value: str) -> int:
        found = index.get(value)
        if found is None:
            with self._intern_lock:
                found = index.get(value)
                if found is None:
                    found = index[value] = len(table)
                    table.append(value)
        return found

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, key: str, counters: Dict,
              context_of: Optional[Callable] = None) -> Callable:
        tracer = self
        name_id = self._intern(self.names, self._name_index, name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if context_of is not None:
                context = context_of(args, kwargs)
            else:
                context = parent[3] if parent is not None else tracer.run_id
            outermost = all(frame[1] != key for frame in stack)
            # frame: [span id, metric key, seconds spent in child spans, context]
            frame = [next(tracer._ids), key, 0.0, context]
            stack.append(frame)
            result = None
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[key] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append((
                    frame[0], name_id, start, end,
                    parent[0] if parent is not None else -1,
                    tracer._intern(tracer.contexts, tracer._context_index, context),
                ))
                if key.startswith("service.queue."):
                    tracer.durations[key].append(duration)
                if outermost and not raised:
                    tracer._count(key, counters, args, kwargs, result, stack)

        return functools.wraps(fn)(traced)

    def _count(self, key, counters, args, kwargs, result, stack) -> None:
        """Add one completed outermost call to its counters (a call that
        raised records its time only)."""
        for counter, value in counters.items():
            amount = value(args, kwargs, result) if callable(value) else value
            self.counts[counter] += amount
            if counter == "fl.eval_models" and any(frame[1] == _RATE_KEY for frame in stack):
                self.counts["core.rate_evaluated_models"] += amount

    # -- patching ---------------------------------------------------------------
    def install(self) -> None:
        """Import every ``repro`` module, then wrap each target."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith(".__main__"):
                importlib.import_module(info.name)
        for module_name, path, key, counters in TARGETS:
            module = sys.modules[module_name]
            context_of = None
            if path == "execute_job":
                context_of = _job_context
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, key, counters)
            else:
                self._patch_function(module, path, key, counters, context_of)

    def _patch_method(self, cls, attr: str, key: str, counters: Dict) -> None:
        raw = cls.__dict__[attr]  # KeyError: the target moved; fix TARGETS
        name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, key, counters))
        else:
            wrapped = self._wrap(raw, name, key, counters)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, module, attr: str, key: str, counters: Dict,
                        context_of: Optional[Callable]) -> None:
        original = getattr(module, attr)
        wrapped = _TracedFunction(
            self._wrap(original, f"{module.__name__}.{attr}", key, counters, context_of),
            original,
        )
        for holder in list(sys.modules.values()):
            if getattr(holder, "__name__", "").startswith("repro") and \
                    getattr(holder, attr, None) is original:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------
    def layer_metrics(self, units: int) -> Dict[str, float]:
        """Per-layer self time and counts, per measured unit of work."""
        metrics: Dict[str, float] = {}
        units = max(1, units)
        keys = sorted({key for _, _, key, _ in TARGETS})
        for key in keys:
            if key.startswith("service.queue."):
                samples = sorted(self.durations.get(key, ()))
                metrics[f"{key}.p50_ms"] = 1e3 * _percentile(samples, 0.5)
                metrics[f"{key}.p90_ms"] = 1e3 * _percentile(samples, 0.9)
                metrics[f"{key}.calls"] = len(samples) / units
            else:
                metrics[f"{key}_s"] = self.self_s.get(key, 0.0) / units
        for _, _, _, counters in TARGETS:
            for counter in counters:
                metrics[counter] = self.counts.get(counter, 0.0) / units
        requests = self.counts.get("core.rate_requests", 0.0)
        evaluated = self.counts.get("core.rate_evaluated_models", 0.0)
        metrics["core.rates_cache_hit_frac"] = (
            max(0.0, 1.0 - evaluated / requests) if requests else 0.0
        )
        return metrics

    def write_spans(self, path: str) -> None:
        """Write every span as one gzipped JSON line: id, name, start, end,
        parent id, context (times in seconds on the ``perf_counter`` clock)."""
        import gzip
        import json

        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span_id, name_id, start, end, parent, context in sorted(self.spans):
                fh.write(json.dumps([span_id, self.names[name_id], round(start, 7),
                                     round(end, 7), parent, self.contexts[context]]))
                fh.write("\n")


def _job_context(args, kwargs) -> str:
    job = args[0] if args else kwargs["job"]
    return str(job["job_id"])


def _percentile(sorted_samples: List[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list (0.0 when empty)."""
    if not sorted_samples:
        return 0.0
    pos = q * (len(sorted_samples) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_samples) - 1)
    return sorted_samples[lo] + (sorted_samples[hi] - sorted_samples[lo]) * (pos - lo)
