"""Shared plumbing: paths, statistics, host facts, server processes, HTTP."""

from __future__ import annotations

import http.client
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Sequence, Tuple

#: One BLAS thread per process, set before NumPy loads (here and in every
#: child, which inherits the environment).  Client and server share a
#: 2-vCPU host, and an idle OpenBLAS worker spins on a core: with two
#: threads each process burns CPU waiting for the other's, and the CPU-cost
#: metric would count the waiting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")
#: Working space of every run (model files, server logs, span dumps, results).
RUNS = os.path.join(ROOT, ".perfbench")

#: The SAU-FNO ``repro-thermal train`` builds by default (width 16, modes 8).
SAU_FNO_CONFIG = {
    "width": 16,
    "modes1": 8,
    "modes2": 8,
    "unet_base_channels": 8,
    "unet_levels": 2,
    "attention_dim": 16,
}

SERVER_BOOT_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 20.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, server failed to boot)."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail when the program is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"the program's sources are missing: no {SRC}/repro package")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``numpy.quantile``'s default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def cost_report(cpu_ms_per_op: float, ops: int, reference_ms: Sequence[float]) -> Dict[str, Any]:
    """``cost_per_op``: CPU time per operation in units of the reference
    kernel's median CPU time over the same window, with both raw parts."""
    reference = median(reference_ms)
    return {
        "cost_per_op": {"value": cpu_ms_per_op / reference, "unit": "ref", "n": ops},
        "cpu_ms_per_op": {"value": cpu_ms_per_op, "unit": "ms", "n": ops},
        "reference_ms": {"value": reference, "unit": "ms", "n": len(reference_ms)},
    }


# ----------------------------------------------------------------------
# Host facts and memory
# ----------------------------------------------------------------------
def host_facts() -> Dict[str, Any]:
    """Core count, interpreter/library versions, BLAS and solver kernel."""
    import numpy as np
    import scipy

    from repro.chip.designs import get_chip
    from repro.solvers.factor import CHOLMOD_AVAILABLE
    from repro.solvers.fvm import FVMSolver

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_info.get('name', '?')} {blas_info.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "cholmod_available": bool(CHOLMOD_AVAILABLE),
        "resolved_kernel": FVMSolver(get_chip("chip1"), nx=8).resolved_kernel,
        "platform": platform.platform(),
    }


def cpu_s(pid: Optional[int] = None) -> float:
    """User plus system CPU time of a process and all its threads, in seconds."""
    with open(f"/proc/{pid if pid is not None else 'self'}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM line in {path}")


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``repro.cli serve`` process with default flags (plus ``extra``).

    ``spans`` set launches it through ``traced_serve.py``, which wraps the
    layers' entry points before starting the same ``serve`` command;
    :meth:`dump_spans` makes it write them to that path.
    """

    def __init__(self, run_dir: str, tag: str, extra: Sequence[str] = (),
                 spans: Optional[str] = None):
        serve_args = ["serve", "--port", "0", *extra]
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            argv = [sys.executable, os.path.join(PERFBENCH, "traced_serve.py"),
                    "--spans", spans, *serve_args]
        self.log_path = os.path.join(run_dir, f"server-{tag}.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.url = self._wait_for_url()
        except BaseException:
            self.stop()
            raise
        match = re.match(r"http://([^:/]+):(\d+)", self.url)
        self.host, self.port = match.group(1), int(match.group(2))

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + SERVER_BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during boot; see {self.log_path}")
            with open(self.log_path) as handle:
                match = re.search(r"listening on (http://\S+)", handle.read())
            if match:
                return match.group(1)
            time.sleep(0.01)
        raise BenchError(f"server did not boot within {SERVER_BOOT_TIMEOUT_S:.0f}s")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def dump_spans(self, path: str, timeout_s: float = 30.0) -> None:
        """Ask a traced server to write its spans (SIGUSR1) and wait for the file."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout_s
        while not os.path.exists(path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError(f"traced server wrote no spans to {path}")
            time.sleep(0.02)

    def connect(self) -> "Client":
        return Client(self.host, self.port)

    def stop(self) -> None:
        """SIGINT (clean shutdown), then wait; kill as a last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
        self._log.close()


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"} if body else {})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            raise

    def post_json(self, path: str, payload: Dict[str, Any]) -> Tuple[int, bytes]:
        return self.request("POST", path, json.dumps(payload).encode("utf-8"))

    def get_json(self, path: str) -> Dict[str, Any]:
        status, body = self.request("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


class Calibrator:
    """The reference kernel (``calibrate.py``) in its own process, running
    alongside a timed window; :meth:`stop` returns its CPU times in ms.
    The constructor returns once the kernel is sampling."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(PERFBENCH, "calibrate.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline().strip() != b"ready":
            self.proc.kill()
            self.proc.wait()
            raise BenchError("the reference kernel did not start")

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def stop(self) -> list:
        try:
            out, _ = self.proc.communicate(timeout=SERVER_STOP_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        samples = json.loads(out) if self.proc.returncode == 0 and out else []
        if not samples:
            raise BenchError("the reference kernel recorded no samples")
        return samples


def new_run_dir(workload: str, seed: int, trace: int) -> str:
    path = os.path.join(RUNS, f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def write_json(path: str, data: Any) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True, default=float)
