"""Classic geometric multigrid (GMG) solver for the variable-coefficient
Poisson problem — the numerical-linear-algebra machinery of Sec. 2.3 that
inspires MGDiffNet's training cycles.

Implements rediscretized coarse operators (ν restricted by injection),
damped-Jacobi smoothing, full-weighting restriction / multilinear
prolongation, and V / W / F cycles.  Dirichlet conditions are handled in
residual-correction form: every level solves a homogeneous-Dirichlet error
equation, so corrections vanish on constrained nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..backend import ops as B

from .assembly import assemble_load, assemble_stiffness
from .grid import UniformGrid
from .quadrature import GaussRule
from .solver import DirichletBC
from .transfer import prolong_nested, restrict_nested

__all__ = ["GeometricMultigrid", "GMGReport"]


@dataclass
class _Level:
    grid: UniformGrid
    matrix: sp.csr_matrix
    diag: np.ndarray
    dirichlet: np.ndarray  # flat boolean mask


@dataclass
class GMGReport:
    iterations: int
    residual: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)


class GeometricMultigrid:
    """Multigrid solver for ``-div(nu grad u) = f`` with Dirichlet data.

    Parameters
    ----------
    grid:
        Finest grid; ``resolution - 1`` must be divisible by 2 enough times
        to build ``max_levels`` (grids of resolution ``2^k + 1`` coarsen all
        the way down).
    nu_nodal:
        Nodal diffusivity on the finest grid.
    bc:
        Dirichlet boundary conditions (mask must be faces of the cube so
        that it restricts naturally to coarser levels).
    n_smooth:
        (pre, post) damped-Jacobi sweeps.
    omega:
        Jacobi damping (2/3 is optimal for the Laplacian).
    coarse_size:
        Maximum number of nodes for the direct coarsest-level solve.
    """

    def __init__(self, grid: UniformGrid, nu_nodal: np.ndarray, bc: DirichletBC,
                 rule: GaussRule | None = None, n_smooth: tuple[int, int] = (2, 2),
                 omega: float = 2.0 / 3.0, max_levels: int | None = None,
                 coarse_size: int = 729) -> None:
        self.rule = rule or GaussRule.create(grid.ndim, 2)
        self.n_pre, self.n_post = n_smooth
        self.omega = omega
        self.bc = bc
        self.levels: list[_Level] = []

        nu = np.asarray(nu_nodal, dtype=np.float64)
        g = grid
        mask = bc.mask
        while True:
            k = assemble_stiffness(g, nu, GaussRule.create(g.ndim, self.rule.order))
            self.levels.append(_Level(grid=g, matrix=k, diag=k.diagonal(),
                                      dirichlet=mask.ravel()))
            if (max_levels is not None and len(self.levels) >= max_levels):
                break
            if g.num_nodes <= coarse_size:
                break
            if not g.can_coarsen() or g.coarsen().resolution < 3:
                break
            g = g.coarsen()
            nu = nu[tuple(slice(None, None, 2) for _ in range(g.ndim))]
            mask = mask[tuple(slice(None, None, 2) for _ in range(g.ndim))]

        # Direct solver on the coarsest interior block.
        coarse = self.levels[-1]
        interior = ~coarse.dirichlet
        self._coarse_interior = interior
        k_ii = coarse.matrix[interior][:, interior].tocsc()
        self._coarse_lu = spla.splu(k_ii)
        self.last_report: GMGReport | None = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    # ------------------------------------------------------------------ #
    def _smooth(self, level: _Level, x: np.ndarray, b: np.ndarray,
                sweeps: int) -> np.ndarray:
        interior = ~level.dirichlet
        inv_d = B.where(level.diag != 0, 1.0 / level.diag, 0.0)
        for _ in range(sweeps):
            r = b - level.matrix @ x
            x = x + self.omega * inv_d * r * interior
        return x

    def _coarse_solve(self, b: np.ndarray) -> np.ndarray:
        x = np.zeros_like(b)
        x[self._coarse_interior] = self._coarse_lu.solve(b[self._coarse_interior])
        return x

    def _cycle(self, li: int, b: np.ndarray, gamma: int,
               f_cycle: bool = False) -> np.ndarray:
        """Solve the level-``li`` homogeneous-Dirichlet error equation."""
        level = self.levels[li]
        if li == len(self.levels) - 1:
            return self._coarse_solve(b)
        x = np.zeros_like(b)
        x = self._smooth(level, x, b, self.n_pre)
        r = (b - level.matrix @ x)
        r *= ~level.dirichlet
        coarse = self.levels[li + 1]
        rc = restrict_nested(r.reshape(level.grid.shape), mode="dual").ravel()
        rc[coarse.dirichlet] = 0.0
        visits = gamma if not f_cycle else max(gamma, 2)
        ec = np.zeros_like(rc)
        for v in range(visits):
            sub_gamma = gamma if not f_cycle or v > 0 else gamma
            ec = ec + self._cycle(li + 1, rc - coarse.matrix @ ec, sub_gamma)
        e = prolong_nested(ec.reshape(coarse.grid.shape)).ravel()
        e[level.dirichlet] = 0.0
        x = x + e
        x = self._smooth(level, x, b, self.n_post)
        return x

    # ------------------------------------------------------------------ #
    def solve(self, f_nodal: np.ndarray | None = None, tol: float = 1e-9,
              max_cycles: int = 60, cycle: str = "v",
              x0: np.ndarray | None = None) -> np.ndarray:
        """Iterate multigrid cycles to relative residual ``tol``.

        ``cycle``: 'v' (gamma=1), 'w' (gamma=2) or 'f' (extra first visit).
        """
        gamma = {"v": 1, "w": 2, "f": 1}[cycle]
        f_cycle = cycle == "f"
        fine = self.levels[0]
        b = assemble_load(fine.grid, f_nodal, self.rule)

        u = self.bc.lift().ravel() if x0 is None else np.asarray(
            x0, dtype=np.float64).ravel().copy()
        u[fine.dirichlet] = self.bc.values.ravel()[fine.dirichlet]

        # Reference scale: residual of the plain Dirichlet lift, so that
        # warm starts (x0 near the solution) converge immediately instead
        # of chasing a tolerance relative to their own tiny residual.
        r_ref = b - fine.matrix @ self.bc.lift().ravel()
        r_ref[fine.dirichlet] = 0.0
        norm0 = max(float(B.norm(r_ref)), 1e-300)

        r = b - fine.matrix @ u
        r[fine.dirichlet] = 0.0
        rel = float(B.norm(r)) / norm0
        history = [rel]
        converged = rel < tol
        it = 0
        while not converged and it < max_cycles:
            it += 1
            e = self._cycle(0, r, gamma, f_cycle=f_cycle)
            u = u + e
            r = b - fine.matrix @ u
            r[fine.dirichlet] = 0.0
            rel = float(B.norm(r)) / norm0
            history.append(rel)
            converged = rel < tol
        self.last_report = GMGReport(iterations=it, residual=history[-1],
                                     converged=converged,
                                     residual_history=history)
        return u.reshape(fine.grid.shape)
