"""In-memory span recorder around the public entry points of each layer.

:func:`install` rebinds public methods on their classes (never module
functions imported by value elsewhere) with thin wrappers that record one
span per call: ``(id, parent, name, start, end, request_id, work)``.
``parent`` is the enclosing span on the same thread, ``request_id`` the
request the thread is working for (set where a layer receives requests) and
``work`` a per-call amount (columns, cases, bytes, flops).  Spans stay in a
list in memory; :meth:`Recorder.dump` writes them once the run ends and
:func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import benchlib

#: Spans whose own time is waiting for another thread, not work.
WAIT_SPANS = ("engine.solve", "engine.queue_wait")

#: Layer of each span-name prefix.
LAYERS = {
    "server": "server",
    "engine": "engine",
    "session": "api",
    "pool": "api",
    "api": "api",
    "voxelize": "voxelize",
    "fvm": "fvm",
    "transient": "transient",
    "operator": "operator",
    "generation": "generation",
    "train": "train",
}


class Recorder:
    """Collects spans and scalar observations from every thread."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.observations: Dict[str, List[float]] = defaultdict(list)
        self.submitted: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread context ---------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> str:
        return getattr(self._local, "rid", "")

    @request_id.setter
    def request_id(self, value: str) -> None:
        self._local.rid = value

    # -- recording --------------------------------------------------------
    def begin(self, rid: Optional[str] = None) -> tuple:
        """Start a span on this thread; returns the token :meth:`end` takes."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        saved_rid = self.request_id
        if rid is not None:
            self.request_id = rid or saved_rid
        stack.append(span_id)
        return span_id, parent, saved_rid, rid is not None, time.perf_counter()

    def end(self, token: tuple, name: Optional[str], work: Any = 0) -> None:
        """End a span; ``name=None`` drops it (nothing happened)."""
        end = time.perf_counter()
        span_id, parent, saved_rid, set_rid, start = token
        self._stack().pop()
        if name is not None:
            self.spans.append((span_id, parent, name, start, end, self.request_id, work))
        if set_rid:
            self.request_id = saved_rid

    def call(self, name: str, func: Callable, args, kwargs,
             work: Optional[Callable] = None, rid: Optional[Callable] = None):
        """Run ``func(*args, **kwargs)`` inside one span."""
        token = self.begin(rid(args, kwargs) if rid is not None else None)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            self.end(token, name, work(args, kwargs, result) if work is not None else 0)

    def add(self, name: str, start: float, end: float, rid: str = "", work: float = 0) -> None:
        """Record a span measured elsewhere (e.g. a queue wait)."""
        self.spans.append((next(self._ids), 0, name, start, end, rid, work))

    def observe(self, name: str, value: float) -> None:
        self.observations[name].append(float(value))

    def dump(self, path: str) -> None:
        """Write every span so far; the file appears whole (rename) or not at all."""
        partial = path + ".partial"
        with open(partial, "w") as handle:
            json.dump({"spans": list(self.spans), "observations": self.observations}, handle)
        os.replace(partial, path)


# ----------------------------------------------------------------------
# Wrapping helpers
# ----------------------------------------------------------------------
def wrap(rec: Recorder, cls, attr: str, name: str,
         work: Optional[Callable] = None, rid: Optional[Callable] = None,
         when: Optional[Callable] = None, after: Optional[Callable] = None) -> None:
    """Rebind ``cls.attr`` so every call records a span named ``name``.

    ``when(args)`` returning False skips the span (the call still runs);
    ``after(args, result)`` runs once the call returned.
    """
    raw = cls.__dict__[attr]
    is_classmethod = isinstance(raw, classmethod)
    func = raw.__func__ if is_classmethod else raw

    def wrapper(*args, **kwargs):
        if when is not None and not when(args):
            return func(*args, **kwargs)
        result = rec.call(name, func, args, kwargs, work=work, rid=rid)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", attr)
    setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)


def wrap_generator(rec: Recorder, cls, attr: str, first: str, rest: str,
                   after_first: Optional[Callable] = None) -> None:
    """Rebind a generator method so each ``next()`` records a span.

    The first item is recorded as ``first`` (it usually carries set-up
    work), every later one as ``rest``.  Spans cover only the generator's
    own code between yields, never the consumer's.
    """
    func = cls.__dict__[attr]

    def wrapper(*args, **kwargs):
        inner = func(*args, **kwargs)

        def timed():
            name = first
            try:
                while True:
                    token = rec.begin()
                    try:
                        item = next(inner)
                    except StopIteration:
                        rec.end(token, None)  # the generator's end is no step
                        return
                    except BaseException:
                        rec.end(token, name)
                        raise
                    rec.end(token, name)
                    if name == first and after_first is not None:
                        after_first(args)
                    name = rest
                    yield item
            finally:
                inner.close()

        return timed()

    wrapper.__wrapped__ = func
    setattr(cls, attr, wrapper)


class _TimedJSON:
    """Stands in for the ``json`` module inside one consumer module.

    ``dumps`` records a span whose work is the encoded length; every other
    attribute is the real module's.
    """

    def __init__(self, rec: Recorder, name: str) -> None:
        self._rec = rec
        self._name = name

    def dumps(self, *args, **kwargs):
        return self._rec.call(self._name, json.dumps, args, kwargs,
                              work=lambda a, k, r: len(r) if r is not None else 0)

    def __getattr__(self, attr):
        return getattr(json, attr)


def _factor_nnz(factor) -> int:
    """Stored entries of an LU factor (``L.nnz + U.nnz``), 0 if unknown."""
    solver = getattr(getattr(factor, "_solve", None), "__self__", None)
    if solver is None or not hasattr(solver, "L"):
        return 0
    return int(solver.L.nnz + solver.U.nnz)


def _conv_flops(args, kwargs, result) -> float:
    layer = args[0]
    if result is None:
        return 0
    batch, out_channels, height, width = result.shape
    kh, kw = layer.kernel_size
    return 2.0 * batch * out_channels * layer.in_channels * kh * kw * height * width


def _batch(args, kwargs, result) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _x_batch(args, kwargs, result) -> int:
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return int(x.shape[0]) if x is not None else 0


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark measures."""
    import repro.data.generation as generation_module
    import repro.serving.server as server_module
    import repro.solvers.fvm as fvm_module
    from repro.api.backends import (FVMBackendAdapter, OperatorBackendAdapter,
                                    TransientBackendAdapter)
    from repro.api.session import ThermalSession
    from repro.api.solution import ThermalSolution
    from repro.autodiff.tensor import Tensor
    from repro.data.dataset import ThermalDataset
    from repro.data.power import PowerSampler
    from repro.nn.attention import SpatialChannelAttention
    from repro.nn.conv import Conv2d
    from repro.nn.spectral import FourierLayer, SpectralConv2d
    from repro.nn.unet import UNet2d
    from repro.operators.base import OperatorModel
    from repro.operators.factory import LoadedOperator
    from repro.operators.ufno import UFourierLayer
    from repro.optim.optimizers import Adam
    from repro.serving.backends import SessionBackend
    from repro.serving.engine import MicroBatchEngine
    from repro.serving.request import ThermalRequest, TransientRequest
    from repro.solvers.factor import SPDFactor
    from repro.solvers.fvm import FVMSolver
    from repro.solvers.transient import TransientFVMSolver
    from repro.solvers.voxelize import GridGeometry
    from repro.training.trainer import Trainer

    # serving.server: HTTP handlers, request parsing, answer encoding.
    handler = server_module._Handler
    wrap(rec, handler, "_post_solve", "server.handle_solve")
    wrap(rec, handler, "_post_solve_transient", "server.handle_transient")
    payload_rid = (lambda args, kwargs: args[1].get("request_id")
                   if len(args) > 1 and isinstance(args[1], dict) else None)

    def parsed(args, request):
        # Later spans on this handler thread belong to the parsed request.
        rec.request_id = request.request_id

    wrap(rec, ThermalRequest, "from_payload", "server.parse", rid=payload_rid, after=parsed)
    wrap(rec, TransientRequest, "from_payload", "server.parse", rid=payload_rid, after=parsed)
    wrap(rec, ThermalSolution, "to_json", "server.to_json")
    server_module.json = _TimedJSON(rec, "server.dumps")

    # serving.engine: admission, queueing, micro-batches.
    def submitted(args, future):
        rec.submitted[args[1].request_id] = time.perf_counter()

    wrap(rec, MicroBatchEngine, "solve", "engine.solve",
         rid=lambda args, kwargs: args[1].request_id)
    wrap(rec, MicroBatchEngine, "submit", "engine.submit", after=submitted)

    def backend_batch(self, requests):
        now = time.perf_counter()
        for request in requests:
            start = rec.submitted.pop(request.request_id, None)
            if start is not None:
                rec.add("engine.queue_wait", start, now, request.request_id)
        return batch_func(self, requests)

    batch_func = SessionBackend.__dict__["solve_batch"]
    SessionBackend.solve_batch = backend_batch
    wrap(rec, SessionBackend, "solve_batch", "engine.batch", work=_batch,
         rid=lambda args, kwargs: "+".join(r.request_id for r in args[1]))

    # api: session cache + pooled adapters.
    wrap(rec, ThermalSession, "solve_batch", "session.solve_batch", work=_batch)
    wrap(rec, ThermalSession, "solve_transient", "session.solve_transient")
    wrap(rec, ThermalSession, "generate_multifidelity_pair", "generation.pair")
    wrap(rec, FVMBackendAdapter, "prepare", "pool.prepare")
    wrap(rec, FVMBackendAdapter, "solve_batch", "api.fvm_adapter", work=_batch)
    wrap(rec, OperatorBackendAdapter, "solve_batch", "api.operator_adapter", work=_batch)
    wrap(rec, TransientBackendAdapter, "solve_trace", "api.transient_adapter")

    # solvers.voxelize: geometry builds and power rasterisation.
    wrap(rec, GridGeometry, "rasterize_power", "voxelize.rasterize")
    wrap(rec, GridGeometry, "coarsen", "voxelize.geometry")
    for module in (fvm_module, generation_module):
        original = module.build_geometry

        def timed_build(*args, _original=original, **kwargs):
            return rec.call("voxelize.geometry", _original, args, kwargs)

        module.build_geometry = timed_build

    # solvers.fvm / solvers.factor: assembly + factorisation, back-substitution.
    def prepared(args, result):
        factor = getattr(result, "factor", None)
        if factor is not None and id(factor) not in seen_factors:
            seen_factors.add(id(factor))
            rec.observe("fvm.factor_nnz", _factor_nnz(factor))

    seen_factors: set = set()
    wrap(rec, FVMSolver, "prepare", "fvm.prepare",
         when=lambda args: args[0]._prepared is None or (
             args[0].method == "direct" and args[0]._prepared.factor is None),
         after=prepared)
    wrap(rec, FVMSolver, "solve_batch", "fvm.solve_batch", work=_batch)
    wrap(rec, FVMSolver, "solve", "fvm.solve", work=lambda a, k, r: 1)

    def columns(args, kwargs, result):
        rhs = args[1]
        return 1 if getattr(rhs, "ndim", 1) == 1 else int(rhs.shape[1])

    def factor_solve(self, rhs):
        nnz = nnz_cache.get(id(self))
        if nnz is None:
            nnz = nnz_cache[id(self)] = _factor_nnz(self)
        return rec.call("fvm.backsub", solve_func, (self, rhs), {},
                        work=lambda a, k, r: [columns(a, k, r), nnz])

    nnz_cache: Dict[int, int] = {}
    solve_func = SPDFactor.__dict__["solve"]
    SPDFactor.solve = factor_solve

    # solvers.transient: backward-Euler steps (time between yields).
    def transient_factor(args):
        solver = args[0]
        cache = solver._factor_cache
        if cache is not None and id(cache[1]) not in seen_factors:
            seen_factors.add(id(cache[1]))
            rec.observe("transient.factor_ms", cache[1].factor_seconds * 1e3)

    wrap_generator(rec, TransientFVMSolver, "iter_steps", "transient.start", "transient.step",
                   after_first=transient_factor)

    # operators / nn: inference entry point and forward blocks.
    wrap(rec, LoadedOperator, "predict", "operator.predict", work=_batch)
    wrap(rec, OperatorModel, "forward", "operator.forward", work=_x_batch)
    wrap(rec, OperatorModel, "lift", "operator.lift")
    wrap(rec, OperatorModel, "project", "operator.project")
    wrap(rec, FourierLayer, "forward", "operator.fourier")
    wrap(rec, UFourierLayer, "forward", "operator.fourier")
    wrap(rec, SpectralConv2d, "forward", "operator.spectral")
    wrap(rec, UNet2d, "forward", "operator.unet")
    wrap(rec, Conv2d, "forward", "operator.conv", work=_conv_flops)
    wrap(rec, SpatialChannelAttention, "forward", "operator.attention")

    # data.generation: power sampling (solves are fvm spans under generation.pair).
    wrap(rec, PowerSampler, "sample", "generation.sample")

    # training / optim: backward pass, optimiser, mini-batching, evaluation.
    wrap(rec, Tensor, "backward", "train.backward")
    wrap(rec, Adam, "step", "train.optimizer")
    wrap(rec, Trainer, "predict", "train.eval")
    wrap_generator(rec, ThermalDataset, "batches", "train.batching", "train.batching")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    return benchlib.median(values) if values else 0.0


def _quantile(values: Sequence[float], q: float) -> float:
    return benchlib.quantile(values, q) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def load(path: str) -> Dict[str, Any]:
    """Read a span dump written by :meth:`Recorder.dump`."""
    with open(path) as handle:
        data = json.load(handle)
    return {"spans": [tuple(span) for span in data["spans"]],
            "observations": data["observations"]}


def _layer(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


class _Index:
    """Parent/child lookups over one list of spans."""

    def __init__(self, spans: List[tuple]):
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.named: Dict[str, List[tuple]] = defaultdict(list)
        self.child_s: Dict[int, float] = defaultdict(float)
        self.wait_child_s: Dict[int, float] = defaultdict(float)
        for span in spans:
            self.named[span[2]].append(span)
            if span[1] in self.by_id:
                self.child_s[span[1]] += span[4] - span[3]
                if span[2] in WAIT_SPANS:
                    self.wait_child_s[span[1]] += span[4] - span[3]

    def ancestors(self, span: tuple) -> List[str]:
        names = []
        parent = span[1]
        while parent in self.by_id:
            ancestor = self.by_id[parent]
            names.append(ancestor[2])
            parent = ancestor[1]
        return names

    def under(self, span: tuple, *names: str) -> bool:
        return any(name in names for name in self.ancestors(span))

    def self_s(self, span: tuple) -> float:
        return max(span[4] - span[3] - self.child_s[span[0]], 0.0)

    def ms(self, name: str, keep: Optional[Callable] = None) -> List[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.named[name] if keep is None or keep(s)]


def span_table(trace: Dict[str, Any], window: Tuple[float, float]) -> Dict[str, Dict[str, float]]:
    """Count, inclusive and self milliseconds of every span name in the window."""
    index = _Index([s for s in trace["spans"] if s[3] >= window[0]])
    table: Dict[str, Dict[str, float]] = {}
    for span in index.spans:
        row = table.setdefault(span[2], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (span[4] - span[3]) * 1e3
        row["self_ms"] += index.self_s(span) * 1e3
    return dict(sorted(table.items()))


def layer_metrics(trace: Dict[str, Any], window: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer metrics (README.md lists each) from merged spans.

    Spans that start inside ``window`` (the timed load) give the per-request
    metrics and the busy/self shares; set-up work (factorisations, geometry,
    adapter builds) is taken from every span, set-up included.
    """
    start, end = window
    wall = end - start
    whole = _Index(trace["spans"])
    run = _Index([s for s in trace["spans"] if s[3] >= start])
    obs = trace["observations"]
    metrics: Dict[str, float] = {}

    # serving.server (means per answer: map answers dominate the cost)
    handled = ("server.handle_solve", "server.handle_transient")
    to_json = run.ms("server.to_json", lambda s: run.under(s, *handled))
    dumps = [s for s in run.named["server.dumps"] if run.under(s, *handled)]
    metrics["server.parse_ms"] = _mean(run.ms("server.parse"))
    metrics["server.encode_ms"] = (
        (sum(to_json) + sum((s[4] - s[3]) * 1e3 for s in dumps)) / len(dumps) if dumps else 0.0
    )
    metrics["server.bytes_out"] = _mean([s[6] for s in dumps])
    metrics["server.answers_encoded"] = len(dumps)

    # serving.engine
    waits = run.ms("engine.queue_wait")
    batches = [s[6] for s in run.named["engine.batch"]]
    metrics["engine.queue_wait_p50_ms"] = _median(waits)
    metrics["engine.queue_wait_p95_ms"] = _quantile(waits, 0.95)
    metrics["engine.batches"] = len(batches)
    metrics["engine.batch_size_mean"] = _mean(batches)

    # api.session / api.pool
    sessions = run.named["session.solve_batch"]
    metrics["session.self_ms"] = (
        sum(run.self_s(s) for s in sessions) * 1e3 / len(sessions) if sessions else 0.0
    )
    metrics["pool.prepare_ms"] = _mean(whole.ms("pool.prepare"))

    # solvers.voxelize
    rasterize = run.ms("voxelize.rasterize")
    metrics["voxelize.rasterize_ms_per_case"] = _mean(rasterize)
    metrics["voxelize.rasterize_calls"] = len(rasterize)
    metrics["voxelize.geometry_ms"] = _mean(whole.ms("voxelize.geometry"))

    # solvers.fvm / solvers.factor (steady back-substitutions only)
    backsub = [s for s in run.named["fvm.backsub"]
               if run.under(s, "fvm.solve_batch", "fvm.solve")]
    columns = sum(s[6][0] for s in backsub)
    backsub_s = sum(s[4] - s[3] for s in backsub)
    # Each column streams every stored factor entry once: an 8-byte value
    # plus a 4-byte row index (bytes computed from nnz, not measured).
    moved = sum(cols * nnz * 12 for cols, nnz in (s[6] for s in backsub))
    metrics["fvm.prepare_ms"] = _mean(whole.ms("fvm.prepare"))
    metrics["fvm.prepares"] = len(whole.named["fvm.prepare"])
    metrics["fvm.backsub_ms_per_case"] = backsub_s * 1e3 / columns if columns else 0.0
    metrics["fvm.backsub_calls"] = len(backsub)
    metrics["fvm.columns_per_call"] = columns / len(backsub) if backsub else 0.0
    metrics["fvm.factor_nnz"] = _mean(obs.get("fvm.factor_nnz", []))
    metrics["fvm.backsub_gb_per_s"] = moved / backsub_s / 1e9 if backsub_s else 0.0

    # solvers.transient
    steps = run.ms("transient.step")
    metrics["transient.step_ms"] = _median(steps)
    metrics["transient.steps"] = len(steps)
    metrics["transient.factor_ms"] = _mean(obs.get("transient.factor_ms", []))

    # operators / nn: block times per case pushed through a forward pass
    forwards = run.named["operator.forward"]
    cases = sum(s[6] for s in forwards)
    predicts = run.named["operator.predict"]
    predict_cases = sum(s[6] for s in predicts)
    metrics["operator.predict_ms_per_case"] = (
        sum(s[4] - s[3] for s in predicts) * 1e3 / predict_cases if predict_cases else 0.0
    )
    metrics["operator.batch_size"] = predict_cases / len(predicts) if predicts else 0.0
    metrics["operator.forward_cases"] = cases
    for block in ("lift", "fourier", "spectral", "unet", "conv", "attention", "project"):
        total_ms = sum(run.ms(f"operator.{block}"))
        metrics[f"operator.{block}_ms"] = total_ms / cases if cases else 0.0
    conv_flops = sum(s[6] for s in run.named["operator.conv"])
    metrics["operator.conv_gflop"] = conv_flops / cases / 1e9 if cases else 0.0

    # data.generation: fvm solves under generate_multifidelity_pair
    gen_solves = [s for s in run.named["fvm.solve_batch"] if run.under(s, "generation.pair")]
    gen_cases = sum(s[6] for s in gen_solves)
    metrics["generation.sample_ms"] = _mean(run.ms("generation.sample"))
    metrics["generation.cases"] = gen_cases
    metrics["generation.solve_ms_per_case"] = (
        sum(s[4] - s[3] for s in gen_solves) * 1e3 / gen_cases if gen_cases else 0.0
    )

    # training / optim, per optimiser step (evaluation forwards excluded)
    train_steps = len(run.named["train.optimizer"])
    training = lambda s: not run.under(s, "train.eval", "operator.predict")  # noqa: E731

    def per_step(values_ms: List[float]) -> float:
        return sum(values_ms) / train_steps if train_steps else 0.0

    metrics["train.steps"] = train_steps
    metrics["train.forward_ms"] = per_step(run.ms("operator.forward", training))
    metrics["train.backward_ms"] = per_step(run.ms("train.backward"))
    metrics["train.optimizer_ms"] = per_step(run.ms("train.optimizer"))
    metrics["train.batching_ms"] = per_step(run.ms("train.batching", training))

    # Busy and self shares of the load window, per layer.  Busy counts each
    # outermost span of a layer minus the time it waited on another thread.
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for span in run.spans:
        if span[2] in WAIT_SPANS:
            continue
        layer = _layer(span[2])
        parent = run.by_id.get(span[1])
        if parent is None or _layer(parent[2]) != layer:
            busy[layer] += span[4] - span[3] - run.wait_child_s[span[0]]
        own[layer] += run.self_s(span)
    for layer in sorted(set(LAYERS.values())):
        metrics[f"{layer}.busy_share"] = busy[layer] / wall if wall > 0 else 0.0
        metrics[f"{layer}.self_share"] = own[layer] / wall if wall > 0 else 0.0
    return metrics
