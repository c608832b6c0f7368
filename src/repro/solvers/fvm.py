"""Steady-state finite-volume heat-conduction solver.

This is the repository's stand-in for the FEM tools the paper uses (MTA,
COMSOL): it solves the same steady heat-conduction problem

    div(k grad T) + Q = 0

on a structured voxel grid with

* harmonic-mean interface conductivities between cells,
* a Robin (convective) boundary on the top surface representing the TIM →
  heat-spreader → heat-sink → air path (``-k dT/dn = h (T - T_amb)``),
* a weaker Robin boundary on the bottom surface (package / board path), and
* adiabatic lateral faces.

The solver has one factorisation — float64, sparse direct, factorised
once — and is organised around a **prepare-once / solve-many** split, the
key cost structure behind the paper's data-generation step (thousands of
solves on one chip/grid):

* *Prepare* (once per solver): voxelize the chip geometry
  (:func:`~repro.solvers.voxelize.build_geometry`), assemble the sparse
  conduction system **directly in CSC** (the 7-point stencil's column
  structure is known in closed form, so no COO intermediate and no
  ``tocsc()`` copy are ever built) and factorise it with the SPD kernel
  of :mod:`repro.solvers.factor` (CHOLMOD Cholesky when importable,
  otherwise SuperLU with a minimum-degree ordering on ``A + A^T`` and no
  pivoting, about half the fill of a COLAMD LU).  The matrix depends only
  on geometry; power enters the discretisation solely through the
  right-hand side.
* *Block superposition* (the default steady kernel): every power
  assignment is a per-block power vector ``p`` — each block's power is
  spread uniformly over its cells — and conduction is linear, so the field
  is ``T = T_bnd + G @ p``.  ``prepare()`` pays one multi-column
  back-substitution for the boundary field ``T_bnd`` and the basis ``G``
  (one column per ``"layer/block"`` of :meth:`ChipStack.flat_block_names`,
  the field of 1 W on that block).  A solve then rasterises the power (for
  validation and the returned grid's heat source) and accumulates
  ``T_bnd + sum_k G[:, k] * p_k`` in the fixed block order, elementwise,
  so a case's bits never depend on its batch size or position.  Above
  :data:`SUPERPOSITION_MAX_BLOCKS` blocks the basis costs more than it
  saves and the solver back-substitutes instead.
* *Back-substitution* (``factorization="lu"``, the pinned reference —
  plain COLAMD ``splu`` — and large floorplans): add the rasterised heat
  source to the cached boundary RHS and back-substitute against the cached
  factorisation.
  :meth:`FVMSolver.solve_batch` stacks many RHS vectors into an ``(n, B)``
  matrix and solves them in one shot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.chip.stack import ChipStack
from repro.solvers.factor import (
    SPDFactor,
    factorize,
    resolve_factorization,
    validate_factorization,
)
from repro.solvers.voxelize import (
    GridGeometry,
    VoxelGrid,
    _cells_per_layer,
    build_geometry,
)

#: Bumped whenever the solver pipeline changes in a way that can alter (even
#: in the last floating-point bits) the fields it produces.  Dataset cache
#: keys embed this token so stale datasets regenerate automatically.
#: "3": direct CSC assembly + selectable SPD factorization kernel.
#: "4": block superposition is the default steady kernel.
#: "5": the default factorisation is symmetric-mode SuperLU (``"lu-sym"``).
SOLVER_VERSION = "5"

#: Largest power-block count for which ``factorization="auto"`` builds the
#: superposition basis.  The basis costs one back-substitution and ``8 n``
#: bytes per block at ``prepare()``, and a query streams every column once,
#: so per-query work grows with the block count while a back-substitution
#: does not.  Measured on chip1's stack with tiled floorplans (2 vCPU, 1 BLAS
#: thread): at 72 blocks the basis adds 123 ms to a 109 ms prepare at res 32
#: (500 ms to 1.0 s at res 64, 13.5 MB) for queries 2.7x (res 32) and 11x
#: (res 64) faster than a back-substitution; at 128 blocks it adds 2x-3x the
#: prepare time for a 1.8x gain at res 32, and per-query parity comes near
#: 250 blocks.  The built-in chips have 7-13 blocks.
SUPERPOSITION_MAX_BLOCKS = 64


@dataclass
class TemperatureField:
    """Solution of a steady-state simulation.

    Attributes
    ----------
    chip:
        The simulated chip.
    grid:
        The voxel grid the PDE was discretised on.
    values:
        Cell-centred temperatures in kelvin, shape ``(nz, ny, nx)``.
    solve_seconds:
        Wall-clock time attributed to this solve.  For batched solves this
        is the amortised per-case share of the batch.
    """

    chip: ChipStack
    grid: VoxelGrid
    values: np.ndarray
    solve_seconds: float

    @property
    def max_K(self) -> float:
        """Junction (peak) temperature."""
        return float(self.values.max())

    @property
    def min_K(self) -> float:
        return float(self.values.min())

    @property
    def mean_K(self) -> float:
        return float(self.values.mean())

    def layer_map(self, layer_name: str) -> np.ndarray:
        """Average temperature map (ny, nx) of one power layer."""
        indices = self.grid.power_layer_slices.get(layer_name)
        if not indices:
            raise KeyError(f"'{layer_name}' is not a power layer of chip '{self.chip.name}'")
        return self.values[indices].mean(axis=0)

    def power_layer_maps(self) -> np.ndarray:
        """Stack of per-power-layer temperature maps, shape (n_layers, ny, nx)."""
        return np.stack([self.layer_map(name) for name in self.chip.power_layer_names])

    def hotspot_location(self) -> Dict[str, float]:
        """Grid coordinates (mm) and value of the peak temperature."""
        flat_index = int(np.argmax(self.values))
        z, y, x = np.unravel_index(flat_index, self.values.shape)
        return {
            "x_mm": (x + 0.5) * self.chip.die_width_mm / self.grid.nx,
            "y_mm": (y + 0.5) * self.chip.die_height_mm / self.grid.ny,
            "cell_z": float(z),
            "temperature_K": float(self.values[z, y, x]),
        }


def _harmonic_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


@dataclass
class _PreparedSystem:
    """Cached assembly products shared by every solve on one geometry.

    ``matrix`` (CSC, assembled directly in that format) and
    ``rhs_boundary`` capture everything that is independent of the power
    assignment; ``cell_volumes`` converts a volumetric heat source into the
    RHS source term; ``factor`` is the SPD factorisation of ``matrix``
    (``None`` while only assembled).  With block superposition,
    ``boundary_field`` (n,) is the zero-power field and ``basis``
    (n x n_blocks, read-only) holds the field of 1 W on each block;
    both stay ``None`` on the back-substitution path.
    """

    matrix: sparse.csc_matrix
    rhs_boundary: np.ndarray
    cell_volumes: np.ndarray
    factor: Optional[SPDFactor] = None
    boundary_field: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None


class FVMSolver:
    """Steady-state finite-volume solver for a chip stack.

    Parameters
    ----------
    chip:
        The chip to simulate.
    nx, ny:
        In-plane resolution of the solver grid.
    cells_per_layer:
        Vertical cells per chip layer (2 resolves the through-layer gradient
        well enough for the benchmark chips; increase for convergence
        studies).
    factorization:
        ``"auto"`` (the default: CHOLMOD Cholesky when
        :data:`~repro.solvers.factor.CHOLMOD_AVAILABLE`, otherwise
        symmetric-mode SuperLU without pivoting, ``"lu-sym"``; answers by
        block superposition) or ``"lu"`` (always COLAMD SuperLU and a
        plain back-substitution per case — the pinned reference that
        differential tests compare against).  See
        :mod:`repro.solvers.factor`.
    geometry:
        An optional pre-built :class:`~repro.solvers.voxelize.GridGeometry`
        to adopt instead of voxelising ``chip`` lazily — callers that share
        one geometry across solvers (the multifidelity dataset pair, the
        generation threads) pass it here.  Must describe the same chip at
        exactly ``nx`` x ``ny`` with ``cells_per_layer``'s vertical layout.
    """

    #: The one solve method: a sparse direct factorisation reused by every
    #: solve.  Provenance reports it.
    method = "direct"

    def __init__(
        self,
        chip: ChipStack,
        nx: int = 64,
        ny: Optional[int] = None,
        cells_per_layer: int = 2,
        factorization: str = "auto",
        geometry: Optional[GridGeometry] = None,
    ):
        self.chip = chip
        self.nx = nx
        self.ny = ny or nx
        self.cells_per_layer = cells_per_layer
        self.factorization = validate_factorization(factorization)
        if geometry is not None:
            # Structural fingerprints, not names: a same-named but modified
            # design would otherwise pair this solver's cooling/dimensions
            # with the geometry's conductivity field and silently produce
            # plausible-but-wrong temperatures.
            if geometry.chip is not chip and geometry.chip.fingerprint() != chip.fingerprint():
                raise ValueError(
                    f"geometry was built for a different chip design "
                    f"('{geometry.chip.name}', not '{chip.name}')"
                )
            if (geometry.nx, geometry.ny) != (self.nx, self.ny):
                raise ValueError(
                    f"geometry resolution {geometry.nx}x{geometry.ny} does not "
                    f"match the solver's {self.nx}x{self.ny}"
                )
            counts = np.bincount(geometry.layer_of_cell, minlength=len(chip.layers)).tolist()
            # The per-layer counts build_geometry (default min_cell_mm) gives.
            expected = _cells_per_layer(chip, cells_per_layer, min_cell_mm=0.01)
            if counts != expected:
                raise ValueError(
                    f"geometry has {counts} vertical cells per layer; "
                    f"cells_per_layer={cells_per_layer} gives {expected}"
                )
        self._geometry: Optional[GridGeometry] = geometry
        self._prepared: Optional[_PreparedSystem] = None
        #: ``(layer, block)`` of every power block, in ``flat_block_names`` order.
        self._block_keys: List[Tuple[str, str]] = [
            tuple(name.split("/", 1)) for name in chip.flat_block_names()
        ]

    # ------------------------------------------------------------------
    @property
    def geometry(self) -> GridGeometry:
        """The cached power-independent voxelisation of the chip."""
        if self._geometry is None:
            self._geometry = build_geometry(
                self.chip, nx=self.nx, ny=self.ny, cells_per_layer=self.cells_per_layer
            )
        return self._geometry

    @property
    def superposition(self) -> bool:
        """Whether solves answer from the per-block basis.

        True for ``factorization="auto"`` on floorplans of at most
        :data:`SUPERPOSITION_MAX_BLOCKS` blocks; ``"lu"`` always
        back-substitutes.
        """
        return (
            self.factorization == "auto"
            and len(self._block_keys) <= SUPERPOSITION_MAX_BLOCKS
        )

    def _assemble(self) -> _PreparedSystem:
        """Assemble the system once, without factorising it.

        The transient solver's entry point: its backward-Euler loop
        factorises ``C/dt + A`` itself and never needs the steady factor.
        """
        if self._prepared is None:
            matrix, rhs_boundary, cell_volumes = self._assemble_system(self.geometry)
            self._prepared = _PreparedSystem(
                matrix=matrix, rhs_boundary=rhs_boundary, cell_volumes=cell_volumes
            )
        return self._prepared

    def prepare(self) -> _PreparedSystem:
        """Assemble and factorise the system once, and build the basis.

        Subsequent :meth:`solve` / :meth:`solve_batch` calls only pay for
        the power rasterisation and either the basis accumulation or the
        triangular back-substitution.
        """
        prepared = self._assemble()
        if prepared.factor is None:
            factor = factorize(prepared.matrix, self.factorization)
            if self.superposition:
                # One multi-column back-substitution: the boundary RHS and
                # 1 W on each block.
                solved = factor.solve(
                    np.column_stack([prepared.rhs_boundary, self._unit_sources(prepared)])
                )
                prepared.boundary_field = np.ascontiguousarray(solved[:, 0])
                basis = np.asfortranarray(solved[:, 1:])
                basis.flags.writeable = False
                prepared.basis = basis
            # Published last: a prepared system with a factor is complete.
            # Concurrent first calls may each build; their results are equal.
            prepared.factor = factor
        return prepared

    def _unit_sources(self, prepared: _PreparedSystem) -> np.ndarray:
        """RHS columns of 1 W on each block, shape ``(n, n_blocks)``.

        A block with no cells at this resolution gets a zero column; it can
        only ever carry zero power (rasterisation rejects anything else).
        """
        geometry = self.geometry
        columns = np.zeros((geometry.cell_count, len(self._block_keys)))
        floorplans = {raster.layer_name: raster.floorplan for raster in geometry.rasters}
        for index, (layer_name, block_name) in enumerate(self._block_keys):
            floorplan = floorplans[layer_name]
            if floorplan.block_mask(block_name, geometry.nx, geometry.ny).any():
                source = geometry.rasterize_power({f"{layer_name}/{block_name}": 1.0})
                columns[:, index] = (source * prepared.cell_volumes).ravel()
        return columns

    def _superpose(
        self, prepared: _PreparedSystem, power_assignments: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Fields of many cases from the basis, shape ``(B, n)``.

        ``T_bnd + sum_k G[:, k] * p_k`` is accumulated block by block in
        the fixed ``flat_block_names`` order with elementwise multiplies and
        adds (no GEMM, whose blocking and FMA would make a case's bits
        depend on the batch around it).
        """
        powers = np.array(
            [self._block_powers(assignment) for assignment in power_assignments]
        )
        fields = np.repeat(prepared.boundary_field[None, :], len(powers), axis=0)
        term = np.empty_like(fields)
        for index in range(len(self._block_keys)):
            np.multiply(powers[:, index, None], prepared.basis[:, index], out=term)
            fields += term
        return fields

    def _block_powers(self, power_assignment: Mapping[str, float]) -> List[float]:
        """One case's powers (W) in ``flat_block_names`` order."""
        per_layer = self.chip.split_power_assignment(dict(power_assignment))
        return [
            float(per_layer[layer_name].get(block_name, 0.0))
            for layer_name, block_name in self._block_keys
        ]

    @property
    def resolved_kernel(self) -> str:
        """The SPD kernel this solver runs: ``"cholmod"``/``"lu-sym"``/``"lu"``.

        Resolved without factorising, so cache keys and provenance can name
        the kernel before (or without) :meth:`prepare`.
        """
        return resolve_factorization(self.factorization)

    # ------------------------------------------------------------------
    def solve(self, power_assignment: Mapping[str, float]) -> TemperatureField:
        """Solve for the steady temperature field under ``power_assignment``."""
        start = time.perf_counter()
        prepared = self.prepare()
        geometry = self.geometry
        heat_source = geometry.rasterize_power(power_assignment)
        if prepared.basis is not None:
            temperatures = self._superpose(prepared, [power_assignment])[0]
        else:
            rhs = prepared.rhs_boundary + (heat_source * prepared.cell_volumes).ravel()
            temperatures = prepared.factor.solve(rhs)
        elapsed = time.perf_counter() - start
        grid = geometry.grid_with_source(heat_source)
        values = temperatures.reshape(geometry.nz, geometry.ny, geometry.nx)
        return TemperatureField(chip=self.chip, grid=grid, values=values, solve_seconds=elapsed)

    def solve_batch(
        self, power_assignments: Sequence[Mapping[str, float]]
    ) -> List[TemperatureField]:
        """Solve many power cases against the single cached preparation.

        With block superposition every case is accumulated from the basis,
        bitwise as :meth:`solve` would.  On the back-substitution path the
        RHS vectors are stacked into an ``(n, B)`` matrix and solved in one
        pass.  Each returned :class:`TemperatureField` carries the
        amortised per-case wall-clock time in ``solve_seconds``.
        """
        if not power_assignments:
            return []
        start = time.perf_counter()
        prepared = self.prepare()
        geometry = self.geometry
        sources = [geometry.rasterize_power(a) for a in power_assignments]
        if prepared.basis is not None:
            solutions = self._superpose(prepared, power_assignments)
        else:
            power_columns = np.stack(
                [(s * prepared.cell_volumes).ravel() for s in sources], axis=1
            )
            # Broadcast the power-free boundary RHS over the power-column
            # matrix in one vectorised add; one row per case afterwards.
            solutions = prepared.factor.solve(
                prepared.rhs_boundary[:, None] + power_columns
            ).T
        per_case = (time.perf_counter() - start) / len(power_assignments)

        fields = []
        for heat_source, case_values in zip(sources, solutions):
            grid = geometry.grid_with_source(heat_source)
            values = case_values.reshape(geometry.nz, geometry.ny, geometry.nx)
            fields.append(
                TemperatureField(
                    chip=self.chip, grid=grid, values=values, solve_seconds=per_case
                )
            )
        return fields

    # ------------------------------------------------------------------
    def _assemble_system(self, grid):
        """Build the conduction system directly in CSC format.

        ``grid`` may be a :class:`VoxelGrid` or a :class:`GridGeometry` —
        only the geometric fields are read.  Returns ``(matrix,
        rhs_boundary, cell_volumes)`` where ``matrix`` is a
        :class:`scipy.sparse.csc_matrix` with sorted, duplicate-free
        indices, ``rhs_boundary`` holds the ambient (Robin) terms and
        ``cell_volumes`` (shape ``(nz, 1, 1)`` broadcastable to the grid)
        converts a volumetric heat source into the RHS source term.

        The 7-point stencil fixes each CSC column's structure in closed
        form: by symmetry, column ``j`` holds rows ``j + offset`` for the
        offsets ``(-nx*ny, -nx, -1, 0, +1, +nx, +nx*ny)`` whose neighbour
        exists — already in increasing row order.  Laying the seven
        conductance bands out in that order and compressing the invalid
        slots yields the canonical CSC arrays directly, with no COO
        triplets, no duplicate summation and no format conversion before
        factorisation.  The arrays are bitwise-identical to the historical
        COO assembly converted via ``tocsc()``; the equivalence suite keeps
        that reference assembly on the test side and asserts this.
        """
        nz, ny, nx = grid.nz, grid.ny, grid.nx
        dx = self.chip.die_width_mm * 1e-3 / nx
        dy = self.chip.die_height_mm * 1e-3 / ny
        dz = grid.dz_mm * 1e-3
        k = grid.conductivity

        ambient = self.chip.cooling.ambient_K
        top_htc = self.chip.cooling.effective_top_htc(self.chip.die_area_m2)
        bottom_htc = self.chip.cooling.secondary_htc

        n = nz * ny * nx
        diag = np.zeros((nz, ny, nx))
        rhs = np.zeros((nz, ny, nx))
        # Seven stencil bands in increasing row-offset order; band 3 is the
        # diagonal.  ``band_data`` holds the signed matrix entries, ``valid``
        # marks the slots whose neighbour exists.
        band_data = np.zeros((7, nz, ny, nx))
        valid = np.zeros((7, nz, ny, nx), dtype=bool)
        valid[3] = True

        # x-direction faces
        if nx > 1:
            k_face = _harmonic_mean(k[:, :, :-1], k[:, :, 1:])
            area = dy * dz[:, None, None]
            conductance = k_face * area / dx
            diag[:, :, :-1] += conductance
            diag[:, :, 1:] += conductance
            band_data[2, :, :, 1:] = -conductance
            valid[2, :, :, 1:] = True
            band_data[4, :, :, :-1] = -conductance
            valid[4, :, :, :-1] = True

        # y-direction faces
        if ny > 1:
            k_face = _harmonic_mean(k[:, :-1, :], k[:, 1:, :])
            area = dx * dz[:, None, None]
            conductance = k_face * area / dy
            diag[:, :-1, :] += conductance
            diag[:, 1:, :] += conductance
            band_data[1, :, 1:, :] = -conductance
            valid[1, :, 1:, :] = True
            band_data[5, :, :-1, :] = -conductance
            valid[5, :, :-1, :] = True

        # z-direction faces: series conduction through the two half-cells.
        if nz > 1:
            k_lower = k[:-1]
            k_upper = k[1:]
            resist = (0.5 * dz[:-1])[:, None, None] / k_lower + (0.5 * dz[1:])[:, None, None] / k_upper
            conductance = (dx * dy) / resist
            diag[:-1] += conductance
            diag[1:] += conductance
            band_data[0, 1:] = -conductance
            valid[0, 1:] = True
            band_data[6, :-1] = -conductance
            valid[6, :-1] = True

        face_area = dx * dy
        # Top surface: Robin boundary through spreader + sink.  The boundary
        # conductance is the series combination of the half-cell conduction
        # and the film coefficient.
        k_top = k[-1]
        half_resistance = (0.5 * dz[-1]) / k_top
        film_resistance = 1.0 / top_htc
        top_conductance = face_area / (half_resistance + film_resistance)
        diag[-1] += top_conductance
        rhs[-1] += top_conductance * ambient

        # Bottom surface: weak package path.
        if bottom_htc > 0:
            k_bottom = k[0]
            half_resistance = (0.5 * dz[0]) / k_bottom
            film_resistance = 1.0 / bottom_htc
            bottom_conductance = face_area / (half_resistance + film_resistance)
            diag[0] += bottom_conductance
            rhs[0] += bottom_conductance * ambient

        cell_volumes = face_area * dz[:, None, None]
        band_data[3] = diag

        offsets = np.array([-nx * ny, -nx, -1, 0, 1, nx, nx * ny])
        columns = np.arange(n)
        row_of_band = columns[None, :] + offsets[:, None]  # (7, n)
        # Column-major compression: transpose to (n, 7) so each column's
        # band entries are contiguous (and, by construction, row-sorted).
        per_column_valid = valid.reshape(7, n).T
        flat_valid = per_column_valid.ravel()
        indices = row_of_band.T.ravel()[flat_valid]
        data = band_data.reshape(7, n).T.ravel()[flat_valid]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_column_valid.sum(axis=1), out=indptr[1:])
        matrix = sparse.csc_matrix((data, indices, indptr), shape=(n, n))
        return matrix, rhs.ravel(), cell_volumes
