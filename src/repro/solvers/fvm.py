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

The solver is organised around a **prepare-once / solve-many** split, the
key cost structure behind the paper's data-generation step (thousands of
solves on one chip/grid):

* *Prepare* (once per solver): voxelize the chip geometry
  (:func:`~repro.solvers.voxelize.build_geometry`), assemble the sparse
  conduction system **directly in CSC** (the 7-point stencil's column
  structure is known in closed form, so no COO intermediate and no
  ``tocsc()`` copy are ever built) and — for the direct method — factorise
  it with the SPD kernel selected by ``factorization=``
  (:mod:`repro.solvers.factor`: CHOLMOD Cholesky when available, sparse LU
  otherwise).  The matrix depends only on geometry; power enters the
  discretisation solely through the right-hand side.
* *Solve* (per power case): rasterise the power assignment to a heat
  source, add it to the cached boundary RHS, and back-substitute against
  the cached factorisation.  :meth:`FVMSolver.solve_batch` stacks many RHS
  vectors into an ``(n, B)`` matrix and solves them in one shot, amortising
  the factorisation across the whole batch.  The CG path reuses the cached
  matrix and diagonal preconditioner and warm-starts each solve from a
  prolonged coarse-grid solution (``coarse_warm_start=``) or the previous
  answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.chip.stack import ChipStack
from repro.solvers.factor import SPDFactor, factorize, validate_factorization
from repro.solvers.voxelize import GridGeometry, VoxelGrid, build_geometry

#: Bumped whenever the solver pipeline changes in a way that can alter (even
#: in the last floating-point bits) the fields it produces.  Dataset cache
#: keys embed this token so stale datasets regenerate automatically.
#: "3": direct CSC assembly + selectable SPD factorization kernel.
SOLVER_VERSION = "3"

#: Documented worst-case |error| vs the float64 direct answer of the
#: float32 **refined** batch path (one mixed-precision refinement sweep).
#: Measured ~3e-5 K on the benchmark chips; the bar leaves margin.
FLOAT32_REFINED_BOUND_K = 1e-3

#: Documented worst-case |error| vs the float64 direct answer of the
#: float32 **single-sweep** path (``refine=False``: no refinement, one
#: triangular sweep on the ambient-shifted rise system).  Measured
#: 2e-3..1e-2 K across the benchmark chips at resolutions 48-80; the bound
#: leaves margin for other designs.  Fine for surrogate-training data
#: (operator errors are >= 0.1 K), not for answers served under the
#: 1e-3 K exactness bar — use the refined path there.
FLOAT32_SINGLE_SWEEP_BOUND_K = 5e-2


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
    RHS source term.  ``factor`` is the SPD factorisation (direct method,
    built lazily on first use); ``diagonal`` backs the CG preconditioner.
    """

    matrix: sparse.csc_matrix
    rhs_boundary: np.ndarray
    cell_volumes: np.ndarray
    factor: Optional[SPDFactor] = None
    diagonal: Optional[np.ndarray] = None
    #: Single-precision factorisation backing ``solve_batch(dtype="float32")``;
    #: built lazily on first use, independent of the float64 ``factor``.
    lu_single: Optional[sparse_linalg.SuperLU] = None


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
    method:
        ``"direct"`` (sparse SPD factorisation, computed once and reused
        across solves) or ``"cg"`` (conjugate gradients with a diagonal
        preconditioner, warm-started from a coarse-grid solve or the
        previous solution).  Direct is faster for the grid sizes used in
        the benchmarks.
    factorization:
        Which SPD kernel backs the direct method: ``"auto"`` (CHOLMOD
        Cholesky when :data:`~repro.solvers.factor.CHOLMOD_AVAILABLE`,
        sparse LU otherwise), ``"cholesky"`` (CHOLMOD, falling back to the
        bitwise-identical LU call when it is not importable) or ``"lu"``
        (always SuperLU).  See :mod:`repro.solvers.factor`.
    coarse_warm_start:
        Optional in-plane coarsening factor (e.g. ``2``).  The CG method
        then warm-starts every solve from a direct solve on the
        ``coarsen(factor)`` geometry, prolonged back to the fine grid —
        fewer CG iterations for one cheap coarse back-substitution.  Must
        divide ``nx`` and ``ny``; ignored by the direct method.
    geometry:
        An optional pre-built :class:`~repro.solvers.voxelize.GridGeometry`
        to adopt instead of voxelising ``chip`` lazily — callers that share
        one geometry across solvers (the multifidelity dataset pair, the
        generation threads) pass it here.  Must describe
        the same chip at exactly ``nx`` x ``ny``.
    """

    def __init__(
        self,
        chip: ChipStack,
        nx: int = 64,
        ny: Optional[int] = None,
        cells_per_layer: int = 2,
        method: str = "direct",
        cg_tolerance: float = 1e-9,
        factorization: str = "auto",
        coarse_warm_start: Optional[int] = None,
        geometry: Optional[GridGeometry] = None,
    ):
        if method not in ("direct", "cg"):
            raise ValueError(f"unknown method '{method}'")
        self.chip = chip
        self.nx = nx
        self.ny = ny or nx
        self.cells_per_layer = cells_per_layer
        self.method = method
        self.cg_tolerance = cg_tolerance
        self.factorization = validate_factorization(factorization)
        if coarse_warm_start is not None:
            coarse_warm_start = int(coarse_warm_start)
            if coarse_warm_start < 2:
                raise ValueError("coarse_warm_start must be a coarsening factor >= 2")
            if self.nx % coarse_warm_start or self.ny % coarse_warm_start:
                raise ValueError(
                    f"coarse_warm_start factor {coarse_warm_start} does not divide "
                    f"the {self.nx}x{self.ny} resolution"
                )
        self.coarse_warm_start = coarse_warm_start
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
        self._geometry: Optional[GridGeometry] = geometry
        self._prepared: Optional[_PreparedSystem] = None
        self._warm_start: Optional[np.ndarray] = None
        self._coarse: Optional["FVMSolver"] = None
        #: CG iteration count of the most recent iterative solve (None for
        #: the direct method); the warm-start benchmarks read this.
        self.last_cg_iterations: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def geometry(self) -> GridGeometry:
        """The cached power-independent voxelisation of the chip."""
        if self._geometry is None:
            self._geometry = build_geometry(
                self.chip, nx=self.nx, ny=self.ny, cells_per_layer=self.cells_per_layer
            )
        return self._geometry

    def _prepare_assembly(self) -> _PreparedSystem:
        """Assemble the power-independent system without factorising it.

        The float32 batch path uses this directly: it needs the matrix and
        boundary data but factorises in single precision, so building the
        float64 factor would double its time-to-first-solve and hold an
        unused factorisation for the solver's lifetime.
        """
        if self._prepared is None:
            geometry = self.geometry
            matrix, rhs_boundary, cell_volumes = self._assemble_system(geometry)
            self._prepared = _PreparedSystem(
                matrix=matrix, rhs_boundary=rhs_boundary, cell_volumes=cell_volumes
            )
        return self._prepared

    def prepare(self) -> _PreparedSystem:
        """Assemble (and for the direct method, factorise) the system once.

        Subsequent :meth:`solve` / :meth:`solve_batch` calls only pay for
        the power rasterisation and the triangular back-substitution.
        """
        prepared = self._prepare_assembly()
        if self.method == "direct" and prepared.factor is None:
            prepared.factor = factorize(prepared.matrix, self.factorization)
        if self.method == "cg" and prepared.diagonal is None:
            prepared.diagonal = prepared.matrix.diagonal()
        return prepared

    @property
    def resolved_kernel(self) -> str:
        """The SPD kernel the direct method runs: ``"cholmod"`` or ``"lu"``.

        Resolved from the ``factorization`` knob without factorising, so
        cache keys and provenance can name the kernel before (or without)
        :meth:`prepare`.
        """
        from repro.solvers.factor import resolve_factorization

        return resolve_factorization(self.factorization)

    # ------------------------------------------------------------------
    def solve(self, power_assignment: Mapping[str, float]) -> TemperatureField:
        """Solve for the steady temperature field under ``power_assignment``."""
        start = time.perf_counter()
        prepared = self.prepare()
        geometry = self.geometry
        heat_source = geometry.rasterize_power(power_assignment)
        rhs = prepared.rhs_boundary + (heat_source * prepared.cell_volumes).ravel()
        x0 = self._coarse_guess(power_assignment)
        temperatures = self._solve_linear(prepared, rhs, x0=x0)
        elapsed = time.perf_counter() - start
        grid = geometry.grid_with_source(heat_source)
        values = temperatures.reshape(geometry.nz, geometry.ny, geometry.nx)
        return TemperatureField(chip=self.chip, grid=grid, values=values, solve_seconds=elapsed)

    def solve_batch(
        self,
        power_assignments: Sequence[Mapping[str, float]],
        dtype: Optional[str] = None,
        refine: bool = True,
    ) -> List[TemperatureField]:
        """Solve many power cases against the single cached factorisation.

        The RHS vectors are stacked into an ``(n, B)`` matrix and solved in
        one pass (direct method), so the factorisation and all symbolic work
        are paid once for the whole batch.  The CG path falls back to a loop
        that warm-starts each case from a coarse-grid solve (when
        ``coarse_warm_start`` is set) or the previous solution.

        ``dtype`` selects the precision of the stacked back-substitution:
        ``None``/``"float64"`` is the exact historical path; ``"float32"``
        solves against a lazily built single-precision LU whose L/U factors
        are half the bytes, halving the memory traffic of each triangular
        sweep.  The float32 path solves for the temperature *rise* above
        ambient (the rise is tens of kelvin instead of ~350 K, which keeps
        the round-off well below the bounds quoted here) and then:

        * ``refine=True`` (default) applies one mixed-precision refinement
          sweep — a float64 SpMV residual re-solved in float32 — landing
          within :data:`FLOAT32_REFINED_BOUND_K` (measured ~3e-5 K) of the
          float64 answer at the cost of a second triangular sweep;
        * ``refine=False`` is the honest **single-sweep** mode for
          surrogate-training data generation: one triangular sweep, within
          :data:`FLOAT32_SINGLE_SWEEP_BOUND_K` (measured 2e-3..1e-2 K) of
          the float64 answer.  Training data tolerates that easily
          (operator errors are two orders larger), serving answers under
          the 1e-3 K bar do not.

        Only the direct method supports float32; the returned fields carry
        float32 values.  Each returned :class:`TemperatureField` carries
        the amortised per-case wall-clock time in ``solve_seconds``.
        """
        resolved_dtype = np.dtype(np.float64 if dtype is None else dtype)
        if resolved_dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"unsupported solve_batch dtype '{dtype}'; use float64 or float32"
            )
        single = resolved_dtype == np.dtype(np.float32)
        if single and self.method != "direct":
            raise ValueError(
                "float32 RHS stacking requires the direct method (the CG path "
                "iterates in float64)"
            )
        if not refine and not single:
            raise ValueError(
                "refine=False is the float32 single-sweep mode; the float64 "
                "path has no refinement sweep to skip"
            )
        if not power_assignments:
            return []
        start = time.perf_counter()
        # The float32 path factorises in single precision only; do not build
        # (or wait for) the float64 factor it would never use.
        prepared = self._prepare_assembly() if single else self.prepare()
        geometry = self.geometry
        sources = [geometry.rasterize_power(a) for a in power_assignments]
        power_columns = np.stack(
            [(s * prepared.cell_volumes).ravel() for s in sources], axis=1
        )
        if single:
            # Solve for the temperature *rise* above ambient: the boundary
            # RHS equals ``A @ (ambient * 1)`` exactly (interior row sums are
            # zero; boundary rows sum to their Robin conductance), so
            # ``A u = power_rhs`` with ``T = ambient + u``.
            if prepared.lu_single is None:
                prepared.lu_single = sparse_linalg.splu(
                    prepared.matrix.astype(np.float32)
                )
            rises = prepared.lu_single.solve(power_columns.astype(np.float32))
            if refine:
                # One step of mixed-precision iterative refinement: the
                # residual is computed with the float64 matrix (a cheap SpMV
                # against the two float32 triangular sweeps) and its
                # correction re-solved in float32.  This wipes out the
                # factorisation's condition-number amplification.
                residual = power_columns - prepared.matrix @ rises.astype(np.float64)
                rises = rises + prepared.lu_single.solve(residual.astype(np.float32))
            solutions = rises + np.float32(self.chip.cooling.ambient_K)
        else:
            # Broadcast the power-free boundary RHS over the power-column
            # matrix in one vectorised add (elementwise identical to the
            # historical per-column re-stacking, without rebuilding the
            # boundary vector B times).
            rhs_columns = prepared.rhs_boundary[:, None] + power_columns
            if self.method == "direct":
                solutions = prepared.factor.solve(rhs_columns)
            else:
                solutions = np.empty_like(rhs_columns)
                for column in range(rhs_columns.shape[1]):
                    solutions[:, column] = self._solve_linear(
                        prepared,
                        rhs_columns[:, column],
                        x0=self._coarse_guess(power_assignments[column]),
                    )
        per_case = (time.perf_counter() - start) / len(power_assignments)

        fields = []
        for case_index, heat_source in enumerate(sources):
            grid = geometry.grid_with_source(heat_source)
            values = solutions[:, case_index].reshape(geometry.nz, geometry.ny, geometry.nx)
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
        factorisation.  The arrays are bitwise-identical to the COO
        reference assembly (:meth:`_assemble_system_coo`) converted via
        ``tocsc()``; the equivalence suite asserts this.
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

    def _assemble_system_coo(self, grid):
        """Reference COO assembly (the historical path), kept for equivalence
        tests and the prepare-time benchmark.

        Builds the same system as :meth:`_assemble_system` through COO
        triplets coalesced into CSR — the pre-CSC pipeline whose
        ``tocsc()`` conversion the direct assembly eliminates.  Returns
        ``(csr_matrix, rhs_boundary, cell_volumes)``.
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
        index = np.arange(n).reshape(nz, ny, nx)

        diag = np.zeros((nz, ny, nx))
        rhs = np.zeros((nz, ny, nx))

        rows = []
        cols = []
        vals = []

        def add_pair(idx_a, idx_b, conductance):
            rows.append(idx_a)
            cols.append(idx_b)
            vals.append(-conductance)

        if nx > 1:
            k_face = _harmonic_mean(k[:, :, :-1], k[:, :, 1:])
            area = dy * dz[:, None, None]
            conductance = k_face * area / dx
            diag[:, :, :-1] += conductance
            diag[:, :, 1:] += conductance
            a = index[:, :, :-1].ravel()
            b = index[:, :, 1:].ravel()
            c = conductance.ravel()
            add_pair(a, b, c)
            add_pair(b, a, c)

        if ny > 1:
            k_face = _harmonic_mean(k[:, :-1, :], k[:, 1:, :])
            area = dx * dz[:, None, None]
            conductance = k_face * area / dy
            diag[:, :-1, :] += conductance
            diag[:, 1:, :] += conductance
            a = index[:, :-1, :].ravel()
            b = index[:, 1:, :].ravel()
            c = conductance.ravel()
            add_pair(a, b, c)
            add_pair(b, a, c)

        if nz > 1:
            k_lower = k[:-1]
            k_upper = k[1:]
            resist = (0.5 * dz[:-1])[:, None, None] / k_lower + (0.5 * dz[1:])[:, None, None] / k_upper
            conductance = (dx * dy) / resist
            diag[:-1] += conductance
            diag[1:] += conductance
            a = index[:-1].ravel()
            b = index[1:].ravel()
            c = conductance.ravel()
            add_pair(a, b, c)
            add_pair(b, a, c)

        face_area = dx * dy
        k_top = k[-1]
        half_resistance = (0.5 * dz[-1]) / k_top
        film_resistance = 1.0 / top_htc
        top_conductance = face_area / (half_resistance + film_resistance)
        diag[-1] += top_conductance
        rhs[-1] += top_conductance * ambient

        if bottom_htc > 0:
            k_bottom = k[0]
            half_resistance = (0.5 * dz[0]) / k_bottom
            film_resistance = 1.0 / bottom_htc
            bottom_conductance = face_area / (half_resistance + film_resistance)
            diag[0] += bottom_conductance
            rhs[0] += bottom_conductance * ambient

        cell_volumes = face_area * dz[:, None, None]

        rows.append(index.ravel())
        cols.append(index.ravel())
        vals.append(diag.ravel())

        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return matrix, rhs.ravel(), cell_volumes

    # ------------------------------------------------------------------
    def _coarse_guess(self, power_assignment: Mapping[str, float]) -> Optional[np.ndarray]:
        """Prolonged coarse-grid solution as a CG initial iterate.

        Solves the same power case with a direct solver on the
        ``coarsen(coarse_warm_start)`` geometry (factorised once, cached on
        this solver) and injects the coarse answer back to the fine grid by
        piecewise-constant prolongation.  Returns ``None`` when the warm
        start is disabled or the method is direct (a direct solve gains
        nothing from an initial guess).
        """
        if self.coarse_warm_start is None or self.method != "cg":
            return None
        if self._coarse is None:
            factor = self.coarse_warm_start
            self._coarse = FVMSolver(
                self.chip,
                nx=self.nx // factor,
                ny=self.ny // factor,
                cells_per_layer=self.cells_per_layer,
                method="direct",
                factorization=self.factorization,
                geometry=self.geometry.coarsen(factor),
            )
        coarse_field = self._coarse.solve(power_assignment)
        factor = self.coarse_warm_start
        fine = np.repeat(np.repeat(coarse_field.values, factor, axis=1), factor, axis=2)
        return fine.ravel()

    def _solve_linear(
        self,
        prepared: _PreparedSystem,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if self.method == "direct":
            return prepared.factor.solve(rhs)
        diagonal = prepared.diagonal
        preconditioner = sparse_linalg.LinearOperator(
            prepared.matrix.shape, matvec=lambda v: v / diagonal
        )
        iterations = 0

        def count_iteration(_xk):
            nonlocal iterations
            iterations += 1

        solution, info = sparse_linalg.cg(
            prepared.matrix,
            rhs,
            x0=x0 if x0 is not None else self._warm_start,
            rtol=self.cg_tolerance,
            maxiter=20000,
            M=preconditioner,
            callback=count_iteration,
        )
        self.last_cg_iterations = iterations
        if info != 0:
            raise RuntimeError(f"conjugate gradients failed to converge (info={info})")
        self._warm_start = solution.copy()
        return solution
