"""Reference COO assembly of the FVM conduction system.

The historical assembly path: COO triplets coalesced into CSR, which the
solver's direct CSC assembly replaced.  It lives on the test side as the
reference the equivalence suite and the prepare-time benchmark compare the
direct assembly against.
"""

import numpy as np
from scipy import sparse

from repro.solvers.fvm import _harmonic_mean


def assemble_system_coo(solver, grid):
    """Build ``solver``'s conduction system for ``grid`` through COO triplets.

    ``grid`` may be a :class:`~repro.solvers.voxelize.VoxelGrid` or a
    :class:`~repro.solvers.voxelize.GridGeometry`.  Returns
    ``(csr_matrix, rhs_boundary, cell_volumes)``, the same triple as
    ``FVMSolver._assemble_system`` but with the matrix in CSR.
    """
    nz, ny, nx = grid.nz, grid.ny, grid.nx
    dx = solver.chip.die_width_mm * 1e-3 / nx
    dy = solver.chip.die_height_mm * 1e-3 / ny
    dz = grid.dz_mm * 1e-3
    k = grid.conductivity

    ambient = solver.chip.cooling.ambient_K
    top_htc = solver.chip.cooling.effective_top_htc(solver.chip.die_area_m2)
    bottom_htc = solver.chip.cooling.secondary_htc

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
