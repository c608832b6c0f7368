"""Dataset generation: run the FVM solver over random power cases.

``generate_dataset`` is the reproduction of the paper's data-generation step
(Section IV-A): for a chip and a grid resolution, draw random power
distributions and solve each with the finite-volume solver, storing the
per-power-layer power-density maps as inputs and the corresponding per-layer
temperature maps as targets.

The loop is built on the solver's prepare-once / solve-many split
(:mod:`repro.solvers.fvm`): cases are drawn up front (preserving the exact
seed RNG sequence), grouped into stacked-RHS batches, and the batches are
solved by :func:`solve_batches`.  That helper deals the batches round-robin
to ``workers`` threads, each owning one prepared solver built from one
shared geometry; the sparse back-substitution releases the GIL, so threads
scale generation with cores while the answers stay bitwise-identical to a
single worker.  This is where the paper's cost asymmetry lives (thousands of
PDE solves per dataset), so amortising — and parallelising — the per-case
cost directly sets the end-to-end generation throughput.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.chip.designs import get_chip
from repro.chip.stack import ChipStack
from repro.data.dataset import ThermalDataset
from repro.data.power import PowerCase, PowerSampler
from repro.solvers.factor import resolve_factorization
from repro.solvers.fvm import FVMSolver, SOLVER_VERSION, TemperatureField
from repro.solvers.voxelize import GridGeometry, build_geometry

#: Number of power cases solved per batched factorisation pass.  Bounds the
#: peak memory of the stacked ``(n, B)`` right-hand-side matrix, and is the
#: unit of work dealt to the generation threads.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to (re)generate a dataset deterministically."""

    chip_name: str
    resolution: int
    num_samples: int
    seed: int = 0
    cells_per_layer: int = 2
    core_bias: float = 3.0
    idle_probability: float = 0.15
    total_power_range_W: Optional[Tuple[float, float]] = None

    def cache_key(self) -> str:
        """A filesystem-safe identifier for caching.

        Embeds the solver pipeline version so cached datasets regenerate
        whenever the solver changes, and the SPD kernel this host's solver
        resolves to (``cholmod``/``lu-sym``, see :mod:`repro.solvers.factor`)
        so a dataset generated under one kernel is never served to a host
        resolving to another — the kernels agree only to ~1e-9 K, and
        cached bits must name what produced them.
        """
        power = (
            "default"
            if self.total_power_range_W is None
            else f"{self.total_power_range_W[0]:g}-{self.total_power_range_W[1]:g}"
        )
        kernel = resolve_factorization("auto")
        return (
            f"{self.chip_name}_r{self.resolution}_n{self.num_samples}_s{self.seed}"
            f"_c{self.cells_per_layer}_b{self.core_bias:g}_i{self.idle_probability:g}_p{power}"
            f"_k{kernel}_v{SOLVER_VERSION}"
        )


def generate_case(
    chip: ChipStack,
    case: PowerCase,
    sampler: PowerSampler,
    solver: FVMSolver,
) -> Tuple[np.ndarray, np.ndarray, TemperatureField]:
    """Rasterise one power case and solve it.

    Returns ``(input_maps, target_maps, field)`` where the maps have shape
    ``(C, ny, nx)``.
    """
    inputs = sampler.rasterize(case, solver.nx, solver.ny)
    field = solver.solve(case.assignment)
    targets = field.power_layer_maps()
    return inputs, targets, field


def draw_batches(
    spec: DatasetSpec, chip: ChipStack, batch_size: int
) -> Tuple[PowerSampler, List[List[PowerCase]]]:
    """The seeded case list of ``spec``, cut into stacked-RHS batches.

    Sampling is the only consumer of the RNG, so drawing every case up
    front produces the exact sequence a per-case loop would.  Distributed
    generation re-draws the same list on every host and gets the same
    batch boundaries.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(spec.seed)
    sampler = PowerSampler(
        chip,
        total_power_range_W=spec.total_power_range_W,
        core_bias=spec.core_bias,
        idle_probability=spec.idle_probability,
    )
    cases = sampler.sample_many(spec.num_samples, rng)
    batches = [
        cases[start:start + batch_size] for start in range(0, spec.num_samples, batch_size)
    ]
    return sampler, batches


def solve_batches(
    chip: ChipStack,
    resolution: int,
    batches: Sequence[Sequence[Mapping[str, float]]],
    *,
    cells_per_layer: int = 2,
    geometry: Optional[GridGeometry] = None,
    workers: int = 1,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Solve batches of power assignments, fanned out over ``workers`` threads.

    Batch ``i`` goes to worker ``i % workers``; each worker builds one
    prepared :class:`~repro.solvers.fvm.FVMSolver` from the shared
    ``geometry`` (voxelised here when not given) and solves its batches in
    order.  Worker 0 runs on the calling thread, so ``workers=1`` starts no
    thread at all.  Returns one ``(targets, solve_seconds)`` pair per batch,
    in batch order: ``targets`` has shape ``(B, C, ny, nx)`` (per-power-layer
    temperature maps, the dataset's regression targets) and
    ``solve_seconds`` holds the amortised per-case wall-clock costs.  The
    answers do not depend on ``workers``: every batch is the same
    stacked-RHS solve against the same factorisation.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not batches:
        return []
    if geometry is None:
        geometry = build_geometry(chip, nx=resolution, cells_per_layer=cells_per_layer)
    workers = min(workers, len(batches))
    results: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(batches)  # type: ignore[list-item]

    def work(slot: int) -> None:
        solver = FVMSolver(
            chip, nx=resolution, cells_per_layer=cells_per_layer, geometry=geometry
        )
        for index in range(slot, len(batches), workers):
            fields = solver.solve_batch(batches[index])
            results[index] = (
                np.stack([field.power_layer_maps() for field in fields]),
                np.asarray([field.solve_seconds for field in fields], dtype=np.float64),
            )

    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="generate") as pool:
        helpers = [pool.submit(work, slot) for slot in range(1, workers)]
        work(0)
        for helper in helpers:
            helper.result()
    return results


def generate_dataset(
    spec: DatasetSpec,
    chip: Optional[ChipStack] = None,
    verbose: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int = 1,
    geometry: Optional[GridGeometry] = None,
) -> ThermalDataset:
    """Generate a full dataset according to ``spec``.

    The random number generator is seeded from ``spec.seed`` so the same spec
    always produces the same dataset, which the caching layer and the
    experiment harness rely on.  Cases are solved in batches of
    ``batch_size`` right-hand sides against cached factorisations, dealt
    across ``workers`` threads by :func:`solve_batches`; the dataset is
    bitwise-identical for every ``workers`` value.

    ``geometry`` optionally injects a pre-built voxelisation (the
    multifidelity pair shares one across its two fidelities).
    """
    chip = chip or get_chip(spec.chip_name)
    sampler, batches = draw_batches(spec, chip, batch_size)
    solved = solve_batches(
        chip,
        spec.resolution,
        [[case.assignment for case in batch] for batch in batches],
        cells_per_layer=spec.cells_per_layer,
        geometry=geometry,
        workers=workers,
    )

    inputs: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    totals: List[float] = []
    solve_times: List[float] = []
    done = 0
    for batch, (batch_targets, batch_seconds) in zip(batches, solved):
        for case, case_targets, case_seconds in zip(batch, batch_targets, batch_seconds):
            inputs.append(sampler.rasterize(case, spec.resolution, spec.resolution))
            targets.append(case_targets)
            totals.append(case.total_W)
            solve_times.append(float(case_seconds))
        done += len(batch)
        if verbose:
            print(f"  generated {done}/{spec.num_samples} cases for {spec.chip_name}")

    return ThermalDataset(
        inputs=np.stack(inputs),
        targets=np.stack(targets),
        chip_name=chip.name,
        resolution=spec.resolution,
        metadata={
            "total_power_W": np.asarray(totals),
            "solve_seconds": np.asarray(solve_times),
        },
    )


def generate_multifidelity_pair(
    chip_name: str,
    low_resolution: int,
    high_resolution: int,
    num_low: int,
    num_high: int,
    seed: int = 0,
    cells_per_layer: int = 2,
    batch_size: int = DEFAULT_BATCH_SIZE,
    chip: Optional[ChipStack] = None,
    workers: int = 1,
    share_geometry: bool = True,
) -> Tuple[ThermalDataset, ThermalDataset]:
    """Generate the low-fidelity / high-fidelity dataset pair for transfer learning.

    The paper pre-trains on abundant low-resolution data (e.g. 4,000 cases)
    and fine-tunes on a small amount of high-resolution data (1,000 cases, a
    4:1 ratio).  The two datasets here use different seeds so the fine-tuning
    data is not a subset of the pre-training data.  Each dataset runs through
    the batched solver path with its own cached factorisations, fanned out
    over ``workers`` threads.

    When ``share_geometry`` is set and the high resolution is an integer
    multiple of the low, the chip is voxelised **once** at the high
    resolution and the low-fidelity geometry is derived from it by
    :meth:`~repro.solvers.voxelize.GridGeometry.coarsen` — the two
    geometries then share their vertical layout and floorplan rasters, and
    the datasets are bitwise-identical to building both independently.
    """
    if low_resolution >= high_resolution:
        raise ValueError("low_resolution must be strictly smaller than high_resolution")
    chip = chip or get_chip(chip_name)
    low_geometry = high_geometry = None
    if share_geometry and high_resolution % low_resolution == 0:
        high_geometry = build_geometry(
            chip, nx=high_resolution, cells_per_layer=cells_per_layer
        )
        low_geometry = high_geometry.coarsen(high_resolution // low_resolution)
    low = generate_dataset(
        DatasetSpec(
            chip_name=chip_name,
            resolution=low_resolution,
            num_samples=num_low,
            seed=seed,
            cells_per_layer=cells_per_layer,
        ),
        chip=chip,
        batch_size=batch_size,
        workers=workers,
        geometry=low_geometry,
    )
    high = generate_dataset(
        DatasetSpec(
            chip_name=chip_name,
            resolution=high_resolution,
            num_samples=num_high,
            seed=seed + 1,
            cells_per_layer=cells_per_layer,
        ),
        chip=chip,
        batch_size=batch_size,
        workers=workers,
        geometry=high_geometry,
    )
    return low, high
