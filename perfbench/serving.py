"""The two serving workloads: ``serve-exact`` (open loop) and ``serve-surrogate``.

Both talk HTTP to a ``python -m repro.cli serve`` subprocess started with
default flags (``--model`` files added for the surrogate), so client and
server never share an interpreter lock.  Load comes from one process with
at most ``nproc`` threads, one keep-alive connection each.  Answers are
kept as raw bytes during the timed window and decoded and checked after it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import benchlib
import tracing
from benchlib import BenchError, ServerProcess, median, quantile

CHIPS = ("chip1", "chip2", "chip3")
LOAD_THREADS = max(1, min(2, os.cpu_count() or 1))

# serve-exact ------------------------------------------------------------
#: Fresh /solve keys per chip, cycled: ``(resolution, include_maps, count)``.
#: A third at res 64 and a fifth with maps, all of those at res 32.  With
#: the cache-hit repeats the median then falls inside the plain res-32
#: population and the p95 inside the slowest one (chip2 at 64, no maps),
#: never on the edge between two populations.
EXACT_KEYS = ((32, True, 3), (32, False, 7), (64, False, 5))
#: Chips of the transient traces: equal grids, so one step-cost population.
TRANSIENT_CHIPS = ("chip1", "chip3")
#: Offered rate of the open loop, requests per second.  The mix costs about
#: 20 ms of server CPU per request, so the server is about a third busy and
#: latency measures service, not a backlog; a 15 s run sends 240 requests,
#: 216 of them to /solve: the 200+ a p95 needs.
EXACT_RATE = 16.0
#: Latency limit of one ``/solve``: an answer later than this (or failed)
#: misses.  Several times the slowest key's exact solve + encode.
EXACT_LIMIT_MS = 250.0
#: Share of serve-surrogate requests with ``include_maps``.
MAPS_SHARE = 0.2
REPEAT_SHARE = 0.2
TRANSIENT_SHARE = 0.1
TRANSIENT_RESOLUTION = 32
TRANSIENT_DT_S = 0.005
TRANSIENT_STEPS = 20
#: Second schedule step starts mid-step so the switch time is unambiguous.
TRANSIENT_SWITCH_S = 0.0525

# serve-surrogate --------------------------------------------------------
SURROGATE_RESOLUTION = 32
#: One client.  With two, the server's CPU per answer sat at one of two
#: levels 12% apart from run to run, following whether the clients'
#: requests happened to overlap in the server.
SURROGATE_CLIENTS = 1
SURROGATE_LIMIT_MS = 1000.0
NORMALIZER_CASES = 8
MODEL_SEED = 1234

# answer checks ----------------------------------------------------------
REFERENCE_SAMPLE = 24
TRANSIENT_SAMPLE = 6
EXACT_TOLERANCE_K = 1e-6
SURROGATE_TOLERANCE_K = 1e-3
#: ``to_json`` rounds temperatures to 1e-6 K; allow that on top of a bound.
ROUNDING_K = 5e-7
#: Server launches per untraced run; ``setup_s`` is their median.  The
#: last one serves the timed load.  serve-exact's launches prepare six
#: (chip, resolution) keys, about 7 s each, so it makes one fewer.
SETUP_LAUNCHES = {"exact": 2, "surrogate": 3}


@dataclass
class Query:
    kind: str  # "solve" or "transient"
    payload: Dict[str, Any]
    due_s: float = 0.0
    repeat_of: Optional[int] = None


@dataclass
class Result:
    due: float
    sent: float
    done: float
    status: Optional[int]
    body: bytes = b""
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class Verdicts:
    """Why each failed query failed, and the parsed answers."""

    reasons: Dict[int, str] = field(default_factory=dict)
    answers: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def fail(self, index: int, reason: str) -> None:
        self.reasons.setdefault(index, reason)

    def ok(self, index: int) -> bool:
        return index not in self.reasons


# ----------------------------------------------------------------------
# Inputs (from the seed only)
# ----------------------------------------------------------------------
def _samplers():
    from repro.chip.designs import get_chip
    from repro.data.power import PowerSampler

    return {name: PowerSampler(get_chip(name)) for name in CHIPS}


def _powers(sampler, rng) -> Dict[str, float]:
    return dict(sampler.sample(rng).assignment)


def _exact_mix(items: Sequence[Any], count: int, rng) -> List[Any]:
    """``count`` items cycling through ``items`` (exact shares), shuffled."""
    cycled = [items[i % len(items)] for i in range(count)]
    return [cycled[i] for i in rng.permutation(count)]


def exact_queries(seed: int, seconds: float) -> List[Query]:
    """Poisson arrivals over ``seconds`` at :data:`EXACT_RATE`.

    The arrival count is fixed by the rate and the times are uniform order
    statistics — a Poisson process conditioned on its count.  The mix
    shares (kinds, chips, resolutions, maps) are exact and only their order
    is random, so every seed offers the same load with different timing,
    order and power maps, and a percentile never falls between two
    populations by the luck of the draw.
    """
    rng = np.random.default_rng(seed)
    samplers = _samplers()
    count = max(8, int(round(EXACT_RATE * seconds)))
    dues = np.sort(rng.uniform(0.0, seconds, size=count))
    transients = max(1, int(round(TRANSIENT_SHARE * count)))
    repeats = int(round(REPEAT_SHARE * count))
    kinds = ["transient"] * transients + ["repeat"] * repeats
    kinds += ["fresh"] * (count - len(kinds))
    kinds = [kinds[i] for i in rng.permutation(count)]
    first_fresh = kinds.index("fresh")
    # A repeat with nothing to repeat yet is fresh.
    kinds[:first_fresh] = [k if k == "transient" else "fresh" for k in kinds[:first_fresh]]
    fresh = kinds.count("fresh")
    keys = _exact_mix([(chip, res, maps) for res, maps, count in EXACT_KEYS
                       for chip in CHIPS for _ in range(count)], fresh, rng)
    transient_chips = _exact_mix(TRANSIENT_CHIPS, transients, rng)
    queries: List[Query] = []
    solves: List[int] = []
    for index, (kind, due) in enumerate(zip(kinds, dues)):
        rid = f"x{seed}-{index}"
        if kind == "transient":
            chip = transient_chips.pop()
            first, second = _powers(samplers[chip], rng), _powers(samplers[chip], rng)
            payload = {
                "chip": chip,
                "resolution": TRANSIENT_RESOLUTION,
                "duration_s": TRANSIENT_DT_S * TRANSIENT_STEPS,
                "dt_s": TRANSIENT_DT_S,
                "schedule": [{"t_s": 0.0, "powers": first},
                             {"t_s": TRANSIENT_SWITCH_S, "powers": second}],
                "request_id": rid,
            }
            queries.append(Query("transient", payload, float(due)))
            continue
        if kind == "repeat":
            earlier = solves[rng.integers(len(solves))]
            payload = dict(queries[earlier].payload, request_id=rid)
            queries.append(Query("solve", payload, float(due), repeat_of=earlier))
            continue
        chip, resolution, maps = keys[len(solves)]
        payload = {
            "chip": chip,
            "resolution": resolution,
            "backend": "fvm",
            "powers": _powers(samplers[chip], rng),
            "include_maps": maps,
            "request_id": rid,
        }
        solves.append(len(queries))
        queries.append(Query("solve", payload, float(due)))
    return queries


def surrogate_queries(seed: int, client: int, count: int) -> List[Query]:
    """One closed-loop client's request stream.

    The stream is made of blocks, each holding every (chip, maps) pair in
    its exact share, shuffled within the block.  A closed loop sends only
    a prefix of the stream, so every prefix must carry the exact shares
    too: the chips' operators and the maps encoding cost different amounts.
    """
    rng = np.random.default_rng([seed, client])
    samplers = _samplers()
    maps_every = int(round(1 / MAPS_SHARE))
    block = [(chip, maps) for maps in [True] + [False] * (maps_every - 1) for chip in CHIPS]
    keys = [key for _ in range(-(-count // len(block)))
            for key in _exact_mix(block, len(block), rng)][:count]
    return [Query("solve", {
        "chip": chip,
        "resolution": SURROGATE_RESOLUTION,
        "backend": "operator",
        "powers": _powers(samplers[chip], rng),
        "include_maps": maps,
        "request_id": f"s{seed}-{client}-{index}",
    }) for index, (chip, maps) in enumerate(keys)]


# ----------------------------------------------------------------------
# Set-up: launch a server and get a first answer for every key
# ----------------------------------------------------------------------
def _warm(client: benchlib.Client, path: str, payload: Dict[str, Any]) -> None:
    status, body = client.post_json(path, payload)
    if status != 200:
        raise BenchError(f"set-up request {payload} answered {status}: {body[:200]!r}")


def launch_exact(run_dir: str, tag: str, spans: Optional[str] = None
                 ) -> Tuple[ServerProcess, float, None]:
    """Boot a default server and answer every (chip, resolution) key once."""
    started = time.perf_counter()
    server = ServerProcess(run_dir, tag, spans=spans)
    try:
        client = server.connect()
        for chip in CHIPS:
            for resolution in sorted({res for res, _, _ in EXACT_KEYS}):
                _warm(client, "/solve", {"chip": chip, "resolution": resolution,
                                         "backend": "fvm", "total_power": 50.0})
        for chip in TRANSIENT_CHIPS:
            _warm(client, "/solve_transient", {
                "chip": chip, "resolution": TRANSIENT_RESOLUTION, "total_power": 50.0,
                "duration_s": 2 * TRANSIENT_DT_S, "dt_s": TRANSIENT_DT_S})
        client.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, None


def build_models(run_dir: str, tag: str) -> List[str]:
    """Default-config SAU-FNO weights (fixed seed) per chip, normalisers fitted
    on a small generated dataset, saved with ``save_operator``."""
    from repro.chip.designs import get_chip
    from repro.data.generation import DatasetSpec, generate_dataset
    from repro.operators.factory import build_operator, save_operator

    paths = []
    for chip_name in CHIPS:
        chip = get_chip(chip_name)
        dataset = generate_dataset(
            DatasetSpec(chip_name, SURROGATE_RESOLUTION, NORMALIZER_CASES, seed=MODEL_SEED),
            chip=chip,
        )
        input_norm, output_norm = dataset.fit_normalizers()
        model = build_operator(
            "sau_fno", dataset.num_input_channels, dataset.num_output_channels,
            benchlib.SAU_FNO_CONFIG, np.random.default_rng(MODEL_SEED),
        )
        path = os.path.join(run_dir, f"sau_fno-{chip_name}-{tag}.npz")
        save_operator(model, path, input_norm, output_norm,
                      chip_name=chip_name, resolution=SURROGATE_RESOLUTION)
        paths.append(path)
    return paths


def launch_surrogate(run_dir: str, tag: str, spans: Optional[str] = None
                     ) -> Tuple[ServerProcess, float, List[str]]:
    """Build the models, boot a server with them and answer every key once."""
    started = time.perf_counter()
    paths = build_models(run_dir, tag)
    extra = [arg for path in paths for arg in ("--model", path)]
    server = ServerProcess(run_dir, tag, extra=extra, spans=spans)
    try:
        client = server.connect()
        for chip in CHIPS:
            _warm(client, "/solve", {"chip": chip, "resolution": SURROGATE_RESOLUTION,
                                     "backend": "operator", "total_power": 50.0})
        client.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, paths


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
_PATHS = {"solve": "/solve", "transient": "/solve_transient"}


def _send(client: benchlib.Client, query: Query, due: float) -> Result:
    sent = time.perf_counter()
    try:
        status, body = client.post_json(_PATHS[query.kind], query.payload)
        return Result(due, sent, time.perf_counter(), status, body)
    except Exception as error:  # noqa: BLE001 — a broken exchange is a failed operation
        return Result(due, sent, time.perf_counter(), None, error=repr(error))


def open_loop(server: ServerProcess, queries: Sequence[Query]
              ) -> Tuple[List[Result], Tuple[float, float]]:
    """Send each query at its due time; latency counts from the due time.

    Returns the results and the load window ``(start, last answer)``.
    """
    results: List[Optional[Result]] = [None] * len(queries)
    order = itertools.count()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        client = server.connect()
        try:
            while True:
                index = next(order)
                if index >= len(queries):
                    return
                due = start + queries[index].due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                results[index] = _send(client, queries[index], due)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(LOAD_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, (start, max(r.done for r in results))  # type: ignore[return-value]


def closed_loop(server: ServerProcess, streams: Sequence[Sequence[Query]], seconds: float
                ) -> Tuple[List[Query], List[Result], Tuple[float, float]]:
    """Each client sends its next query only after the previous answer.

    Returns the queries sent, their results and the load window.
    """
    sent: List[List[Tuple[Query, Result]]] = [[] for _ in streams]
    start = time.perf_counter()
    stop_at = start + seconds

    def worker(slot: int) -> None:
        client = server.connect()
        try:
            for query in streams[slot]:
                now = time.perf_counter()
                if now >= stop_at:
                    return
                sent[slot].append((query, _send(client, query, now)))
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    pairs = sorted((pair for stream in sent for pair in stream), key=lambda p: p[1].sent)
    window = (start, max(r.done for _, r in pairs))
    return [q for q, _ in pairs], [r for _, r in pairs], window


# ----------------------------------------------------------------------
# Answer checks (outside the timed window)
# ----------------------------------------------------------------------
def check_shapes(queries: Sequence[Query], results: Sequence[Result]) -> Verdicts:
    """Status, identity and plausibility of every answer; repeats must agree."""
    from repro.chip.designs import get_chip

    verdicts = Verdicts()
    for index, (query, result) in enumerate(zip(queries, results)):
        if result.status != 200:
            verdicts.fail(index, f"status {result.status} {result.error or result.body[:120]!r}")
            continue
        try:
            answer = json.loads(result.body)
        except ValueError as error:
            verdicts.fail(index, f"undecodable answer: {error}")
            continue
        verdicts.answers[index] = answer
        payload = query.payload
        chip = get_chip(payload["chip"])
        expected_power = sum(
            payload["powers"].values() if "powers" in payload
            else payload["schedule"][0]["powers"].values())
        problems = []
        for key in ("chip", "resolution", "request_id"):
            if answer.get(key) != payload[key]:
                problems.append(f"{key}={answer.get(key)!r}")
        if query.kind == "solve" and answer.get("backend") != payload["backend"]:
            problems.append(f"backend={answer.get('backend')!r}")
        values = [answer.get(key) for key in ("min_K", "mean_K", "max_K")]
        if any(v is None or not math.isfinite(v) for v in values):
            problems.append(f"non-finite temperatures {values}")
        elif not values[0] <= values[1] <= values[2]:
            problems.append(f"unordered temperatures {values}")
        elif query.payload.get("backend") != "operator" and values[0] < chip.cooling.ambient_K - 1e-6:
            # Untrained surrogate weights need not respect physics; the
            # exact solvers must never cool below ambient.
            problems.append(f"below ambient {values}")
        if abs(answer.get("total_power_W", -1.0) - expected_power) > 1e-6 * max(1.0, expected_power):
            problems.append(f"total_power_W={answer.get('total_power_W')}")
        if payload.get("include_maps"):
            maps = answer.get("layer_maps") or {}
            size = payload["resolution"]
            if sorted(maps) != sorted(chip.power_layer_names) or any(
                    len(m) != size or len(m[0]) != size for m in maps.values()):
                problems.append("layer_maps missing or misshapen")
            elif max(max(max(row) for row in m) for m in maps.values()) > values[2] + 1e-6:
                problems.append("a layer map exceeds max_K")
        if problems:
            verdicts.fail(index, "; ".join(problems))
    for index, query in enumerate(queries):
        if query.repeat_of is None or index not in verdicts.answers:
            continue
        first = verdicts.answers.get(query.repeat_of)
        if first is None:
            continue
        answer = verdicts.answers[index]
        if any(answer[k] != first[k] for k in ("max_K", "min_K", "mean_K")):
            verdicts.fail(index, "repeated query answered differently")
    return verdicts


def _corrupt(verdicts: Verdicts, sample: List[int], corrupt: int) -> None:
    """Make ``corrupt`` sampled answers wrong by 1 K (the self-test's proof
    that a wrong answer is counted as failed)."""
    for index in sample[:corrupt]:
        verdicts.answers[index]["max_K"] += 1.0


def _sample(indices: List[int], size: int, seed: int) -> List[int]:
    rng = np.random.default_rng([seed, 7])
    if len(indices) <= size:
        return indices
    return sorted(rng.choice(indices, size=size, replace=False).tolist())


def check_exact(queries: Sequence[Query], verdicts: Verdicts, seed: int, corrupt: int = 0) -> int:
    """Seeded sample of fvm answers against an in-process LU solve."""
    from repro.chip.designs import get_chip
    from repro.solvers.fvm import FVMSolver

    answered = [i for i in verdicts.answers if queries[i].kind == "solve"]
    sample = _sample(answered, REFERENCE_SAMPLE, seed)
    _corrupt(verdicts, sample, corrupt)
    by_key: Dict[Tuple[str, int], List[int]] = {}
    for index in sample:
        payload = queries[index].payload
        by_key.setdefault((payload["chip"], payload["resolution"]), []).append(index)
    for (chip, resolution), indices in sorted(by_key.items()):
        solver = FVMSolver(get_chip(chip), nx=resolution, factorization="lu")
        fields = solver.solve_batch([queries[i].payload["powers"] for i in indices])
        for index, reference in zip(indices, fields):
            _compare(verdicts, index, reference.max_K, reference.mean_K,
                     EXACT_TOLERANCE_K, "LU reference")
    return len(sample)


def check_transient(queries: Sequence[Query], verdicts: Verdicts, seed: int) -> int:
    """Transient final max_K against an in-process backward-Euler run."""
    from repro.chip.designs import get_chip
    from repro.solvers.transient import TransientFVMSolver

    answered = [i for i in verdicts.answers if queries[i].kind == "transient"]
    sample = _sample(answered, TRANSIENT_SAMPLE, seed)
    solvers: Dict[str, Any] = {}
    for index in sample:
        payload = queries[index].payload
        first, second = (step["powers"] for step in payload["schedule"])
        chip = payload["chip"]
        if chip not in solvers:
            solvers[chip] = TransientFVMSolver(get_chip(chip), nx=payload["resolution"])
        result = solvers[chip].solve(
            lambda t, a=first, b=second: a if t < TRANSIENT_SWITCH_S else b,
            duration_s=payload["duration_s"], dt_s=payload["dt_s"],
        )
        _compare(verdicts, index, result.max_K(), None, EXACT_TOLERANCE_K, "transient reference")
    return len(sample)


def check_surrogate(queries: Sequence[Query], verdicts: Verdicts, seed: int,
                    model_paths: Sequence[str], corrupt: int = 0) -> int:
    """Seeded sample of operator answers against ``load_operator(path).predict``."""
    from repro.chip.designs import get_chip
    from repro.data.power import rasterize_assignment
    from repro.operators.factory import load_operator

    models = {}
    for path in model_paths:
        loaded = load_operator(path)
        models[loaded.chip_name] = loaded
    sample = _sample(sorted(verdicts.answers), REFERENCE_SAMPLE, seed)
    _corrupt(verdicts, sample, corrupt)
    for index in sample:
        payload = queries[index].payload
        chip = get_chip(payload["chip"])
        inputs = rasterize_assignment(chip, payload["powers"], payload["resolution"])
        maps = models[chip.name].predict(inputs[None].astype(np.float32))[0]
        _compare(verdicts, index, float(maps.max()), float(maps.mean()),
                 SURROGATE_TOLERANCE_K, "load_operator reference")
    return len(sample)


def _compare(verdicts: Verdicts, index: int, max_K: float, mean_K: Optional[float],
             tolerance: float, what: str) -> None:
    answer = verdicts.answers[index]
    if abs(answer["max_K"] - max_K) > tolerance + ROUNDING_K:
        verdicts.fail(index, f"max_K {answer['max_K']} vs {what} {max_K}")
    if mean_K is not None and abs(answer["mean_K"] - mean_K) > tolerance + ROUNDING_K:
        verdicts.fail(index, f"mean_K {answer['mean_K']} vs {what} {mean_K}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _latencies(queries, results, verdicts, keep) -> List[float]:
    return [r.latency_ms for i, (q, r) in enumerate(zip(queries, results))
            if keep(q) and verdicts.ok(i)]


def _server_stats(server: ServerProcess) -> Dict[str, Any]:
    client = server.connect()
    try:
        return client.get_json("/stats")
    finally:
        client.close()


def _counters(stats: Dict[str, Any]) -> Dict[str, float]:
    cache = stats["session"]["result_cache"]
    return {
        "engine.errors": sum(b.get("errors", 0) for b in stats["backends"].values()),
        "engine.shed": stats["shed_requests"],
        "engine.rejected": stats["rejected_requests"],
        "engine.requests": stats["total_requests"],
        "session.cache_hits": cache["hits"],
        "session.cache_lookups": cache["hits"] + cache["misses"],
    }


def load_with_stats(server: ServerProcess, load):
    """Run ``load()``; also return the service's own counters over it, the
    CPU seconds the server process spent on it and the reference kernel's
    CPU times (ms) over the same window.

    Engine and result-cache counters are deltas over the load (set-up
    requests excluded); ``pool.adapter_builds`` is the total, because the
    pools are filled during set-up.
    """
    before = _counters(_server_stats(server))
    with benchlib.Calibrator() as calibrator:
        cpu_before = benchlib.cpu_s(server.pid)
        result = load()
        cpu_s = benchlib.cpu_s(server.pid) - cpu_before
        reference_ms = calibrator.stop()
    stats = _server_stats(server)
    after = _counters(stats)
    metrics = {name: after[name] - before[name] for name in after}
    lookups = metrics["session.cache_lookups"]
    metrics["session.cache_hit_ratio"] = metrics["session.cache_hits"] / lookups if lookups else 0.0
    metrics["pool.adapter_builds"] = sum(p["misses"] for p in stats["session"]["pools"].values())
    return result, metrics, cpu_s, reference_ms


def loadgen_metrics(results, verdicts) -> Dict[str, float]:
    """Requests sent, succeeded and failed, and how late the generator ran."""
    late = [(r.sent - r.due) * 1e3 for r in results]
    return {
        "loadgen.sent": len(results),
        "loadgen.succeeded": sum(1 for i in range(len(results)) if verdicts.ok(i)),
        "loadgen.failed": len(verdicts.reasons),
        "loadgen.late_p95_ms": max(quantile(late, 0.95), 0.0) if late else 0.0,
    }


def _solve_summary(queries, results, verdicts, limit_ms: float) -> Dict[str, Any]:
    solve_idx = [i for i, q in enumerate(queries) if q.kind == "solve"]
    lat = _latencies(queries, results, verdicts, lambda q: q.kind == "solve")
    within = sum(1 for i in solve_idx if verdicts.ok(i) and results[i].latency_ms <= limit_ms)
    return {
        "samples": len(lat),
        "p50": median(lat) if lat else float("nan"),
        "p95": quantile(lat, 0.95) if lat else float("nan"),
        "within": within,
        "solves": len(solve_idx),
    }


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------
def _run(launch, launches, load, judge, limit_ms, seed, seconds, trace, run_dir, corrupt):
    """Drive one serving workload: ``launch(run_dir, tag, spans=None)`` boots a
    server and returns ``(server, setup_s, context)`` (``launches`` times
    untraced); ``load(server, seconds)`` returns ``(queries, results,
    window)``; ``judge`` checks the answers and reports the workload's
    timings (see :func:`_outcome`)."""
    if not trace:
        setups = []
        for index in range(launches):
            server, setup_s, context = launch(run_dir, f"setup{index}")
            setups.append(setup_s)
            if index < launches - 1:
                server.stop()
        try:
            (queries, results, window), stats, cpu_s, reference_ms = load_with_stats(
                server, lambda: load(server, seconds))
            peak_mb = benchlib.vm_hwm_mb(server.pid)
        finally:
            server.stop()
        outcome = _outcome(judge, queries, results, window, seed, corrupt, stats, context)
        cost = benchlib.cost_report(cpu_s * 1e3 / len(results), len(results), reference_ms)
        outcome["report"].update(
            setup_s={"value": median(setups), "unit": "s", "n": len(setups), "runs": setups},
            peak_rss_mb={"value": peak_mb, "unit": "MB"},
            **cost,
        )
        outcome["metrics"] = {"setup_s": median(setups), "peak_rss_mb": peak_mb,
                              "cost_per_op": cost["cost_per_op"]["value"]}
        return outcome

    # Traced: the same inputs against an untraced then a traced server, each
    # for half the run; their median latency ratio is the tracing overhead.
    server, _, _ = launch(run_dir, "plain")
    try:
        (plain_queries, plain_results, _), _, plain_cpu_s, reference_ms = load_with_stats(
            server, lambda: load(server, seconds / 2))
    finally:
        server.stop()
    spans_path = os.path.join(run_dir, "spans.json")
    server, _, context = launch(run_dir, "traced", spans=spans_path)
    try:
        (queries, results, window), stats, _, _ = load_with_stats(
            server, lambda: load(server, seconds / 2))
        server.dump_spans(spans_path)
    finally:
        server.stop()
    trace_data = tracing.load(spans_path)
    outcome = _outcome(judge, queries, results, window, seed, corrupt, stats, context)
    plain_verdicts = check_shapes(plain_queries, plain_results)
    plain = _solve_summary(plain_queries, plain_results, plain_verdicts, limit_ms)
    outcome["failed"] += len(plain_verdicts.reasons)
    outcome["attempted"] += len(plain_results)
    outcome["span_table"] = tracing.span_table(trace_data, window)
    outcome["metrics"] = {
        **tracing.layer_metrics(trace_data, window),
        **stats,
        **loadgen_metrics(results, outcome["verdicts"]),
        "loadgen.wall_p50_ms": plain["p50"],
        "loadgen.wall_p95_ms": plain["p95"],
        "loadgen.cpu_ms_per_op": plain_cpu_s * 1e3 / len(plain_results),
        "loadgen.reference_ms": median(reference_ms),
        "loadgen.tracing_overhead": outcome["report"]["solve_p50_ms"]["value"] / plain["p50"],
    }
    return outcome


def _outcome(judge, queries, results, window, seed, corrupt, stats, context):
    """Check every answer, then let ``judge`` run the reference checks and
    return the workload's report."""
    verdicts = check_shapes(queries, results)
    report = judge(queries, results, window, verdicts, seed, corrupt, context)
    report.update(_loadgen_report(results, verdicts))
    report["server_stats"] = stats
    return {
        "attempted": len(results),
        "failed": len(verdicts.reasons),
        "failures": [f"#{i}: {why}" for i, why in sorted(verdicts.reasons.items())[:20]],
        "metrics": {},
        "report": report,
        "verdicts": verdicts,
        "requests": _request_log(queries, results),
    }


def _loadgen_report(results, verdicts) -> Dict[str, Any]:
    counts = loadgen_metrics(results, verdicts)
    return {
        "requests_sent": {"value": counts["loadgen.sent"], "unit": "count"},
        "requests_succeeded": {"value": counts["loadgen.succeeded"], "unit": "count"},
        "requests_failed": {"value": counts["loadgen.failed"], "unit": "count"},
        "generator_late_p95_ms": {"value": counts["loadgen.late_p95_ms"], "unit": "ms"},
    }


def _request_log(queries, results) -> List[List[Any]]:
    """One row per request: kind, chip, resolution, maps, repeat, latency and
    lateness in ms (for reading a run's tail after the fact)."""
    return [[q.kind, q.payload["chip"], q.payload["resolution"],
             bool(q.payload.get("include_maps")), q.repeat_of is not None,
             round(r.latency_ms, 3), round((r.sent - r.due) * 1e3, 3)]
            for q, r in zip(queries, results)]


def run_exact(seed: int, seconds: float, trace: bool, run_dir: str, corrupt: int = 0):
    """``serve-exact``: open-loop fvm traffic plus a little transient."""

    def load(server, run_seconds):
        queries = exact_queries(seed, run_seconds)
        return (queries, *open_loop(server, queries))

    return _run(launch_exact, SETUP_LAUNCHES["exact"], load, _judge_exact, EXACT_LIMIT_MS,
                seed, seconds, trace, run_dir, corrupt)


def _judge_exact(queries, results, _window, verdicts, seed, corrupt, _context):
    checked = (check_exact(queries, verdicts, seed, corrupt)
               + check_transient(queries, verdicts, seed))
    solve = _solve_summary(queries, results, verdicts, EXACT_LIMIT_MS)
    transient = [r.latency_ms for i, (q, r) in enumerate(zip(queries, results))
                 if q.kind == "transient" and verdicts.ok(i)]
    report = {
        "solve_p50_ms": {"value": solve["p50"], "unit": "ms", "n": solve["samples"]},
        "solve_p95_ms": {"value": solve["p95"], "unit": "ms", "n": solve["samples"]},
        "within_limit_share": {
            "value": solve["within"] / solve["solves"] if solve["solves"] else 0.0,
            "unit": "ratio", "n": solve["solves"], "limit_ms": EXACT_LIMIT_MS},
        "transient_p50_ms": {"value": median(transient) if transient else float("nan"),
                             "unit": "ms", "n": len(transient)},
        "offered_rate_per_s": {"value": EXACT_RATE, "unit": "1/s"},
        "reference_checked": {"value": checked, "unit": "count"},
    }
    return report


def run_surrogate(seed: int, seconds: float, trace: bool, run_dir: str, corrupt: int = 0):
    """``serve-surrogate``: closed loop of operator /solve from one client."""

    def load(server, run_seconds):
        # Enough queries that no client runs out before the clock does.
        per_client = int(run_seconds * 100) + 20
        streams = [surrogate_queries(seed, slot, per_client)
                   for slot in range(SURROGATE_CLIENTS)]
        return closed_loop(server, streams, run_seconds)

    return _run(launch_surrogate, SETUP_LAUNCHES["surrogate"], load, _judge_surrogate,
                SURROGATE_LIMIT_MS, seed, seconds, trace, run_dir, corrupt)


def _judge_surrogate(queries, results, window, verdicts, seed, corrupt, model_paths):
    checked = check_surrogate(queries, verdicts, seed, model_paths, corrupt)
    solve = _solve_summary(queries, results, verdicts, SURROGATE_LIMIT_MS)
    maps = _latencies(queries, results, verdicts, lambda q: q.payload["include_maps"])
    report = {
        "solve_p50_ms": {"value": solve["p50"], "unit": "ms", "n": solve["samples"]},
        "solve_p95_ms": {"value": solve["p95"], "unit": "ms", "n": solve["samples"]},
        "answers_per_s": {"value": solve["samples"] / (window[1] - window[0]), "unit": "1/s",
                          "clients": SURROGATE_CLIENTS},
        "within_limit_share": {
            "value": solve["within"] / solve["solves"] if solve["solves"] else 0.0,
            "unit": "ratio", "n": solve["solves"], "limit_ms": SURROGATE_LIMIT_MS},
        "maps_p50_ms": {"value": median(maps) if maps else float("nan"), "unit": "ms",
                        "n": len(maps)},
        "reference_checked": {"value": checked, "unit": "count"},
    }
    return report
