"""Numeric eigenanalysis: graph spectra, walk eigenphases, spectral
idempotents, and the closed-form subdivision / line-graph spectra.

Tolerances: eigenvalues are grouped when within GROUP_TOL of each other;
support membership and idempotent checks use SUPPORT_TOL.  Inputs are
small integer or rational matrices, so spectra are well separated at
these scales.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .exact import RationalMatrix, rational_rank
from .graphs import (
    Graph,
    GraphError,
    NotBiregularError,
    adjacency_matrix,
    biadjacency,
    degree_profile,
    line_graph,
    subdivision,
)
from .walks import WalkOperator, build_partitions

GROUP_TOL = 1e-8
SUPPORT_TOL = 1e-8
RECON_TOL = 1e-9


class SpectralDecomposition(NamedTuple):
    """Grouped eigenvalues with an orthonormal eigenbasis."""

    eigenvalues: tuple[tuple[float, int], ...]  # (value, multiplicity), ascending
    vectors: np.ndarray  # columns ordered to match the flattened groups
    values_raw: np.ndarray


def _group_values(values: list[float], tol: float = GROUP_TOL) -> list[tuple[float, int]]:
    groups: list[tuple[float, int]] = []
    for v in sorted(values):
        if groups and abs(v - groups[-1][0]) <= tol:
            old, mult = groups[-1]
            groups[-1] = ((old * mult + v) / (mult + 1), mult + 1)
        else:
            groups.append((v, 1))
    return groups


def sym_eig(a) -> SpectralDecomposition:
    """Full decomposition of a real symmetric matrix (numpy eigh)."""
    m = np.asarray(a, dtype=float)
    if m.shape[0] != m.shape[1] or np.max(np.abs(m - m.T)) > 1e-12:
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(m)
    recon = vecs @ np.diag(vals) @ vecs.T
    if np.max(np.abs(recon - m)) > RECON_TOL:
        raise RuntimeError("eigendecomposition failed reconstruction bound")
    return SpectralDecomposition(tuple(_group_values(list(vals))), vecs, vals)


def eigenprojector(dec: SpectralDecomposition, value: float, tol: float = GROUP_TOL) -> np.ndarray:
    """Orthogonal projector onto the eigenspace nearest to `value`."""
    mask = np.abs(dec.values_raw - value) <= max(tol, GROUP_TOL)
    if not mask.any():
        raise ValueError(f"{value} is not an eigenvalue")
    v = dec.vectors[:, mask]
    return v @ v.T


class EigenphaseSet(NamedTuple):
    """Phases theta in (0, pi) with multiplicities, plus the +1/-1 counts.

    Each (theta, mult) entry stands for the conjugate pair e^{+-i theta},
    so the total dimension is plus + minus + 2*sum(mults).
    """

    phases: tuple[tuple[float, int], ...]
    plus: int
    minus: int

    def total_dimension(self) -> int:
        return self.plus + self.minus + 2 * sum(m for _, m in self.phases)


def pm1_eigenspace_dims(w: WalkOperator) -> tuple[int, int]:
    """Dimensions of the +1 and -1 eigenspaces of U, computed exactly.

    dim(+1) = |E| - |C0| - |C1| + 2 (the two projections have ranks |C0|
    and |C1| and their column spaces meet in the constants line for a
    connected graph); dim(-1) = |C0| + |C1| - 2 rank(C) with the rank of
    the biadjacency block taken over the rationals.
    """
    m, c = w.dim, biadjacency(w.graph)
    c0, c1 = len(c), len(c[0])
    rank = rational_rank(RationalMatrix(c))
    return m - c0 - c1 + 2, c0 + c1 - 2 * rank


def walk_phases_from_graph(g: Graph) -> EigenphaseSet:
    """Eigenphases of the bipartite walk on bipartition(g) from the
    adjacency spectrum.

    For a biregular (d0, d1) graph each adjacency eigenvalue lambda maps to
    cos(theta) = 2 lambda^2 / (d0 d1) - 1.  Boundary values (lambda^2 equal
    to d0 d1 or 0) belong to the +1 / -1 eigenspaces whose multiplicities
    come from the exact dimension formulas.
    """
    from .walks import build_bipartite_walk

    prof = degree_profile(g)
    if not prof.is_biregular:
        raise NotBiregularError("graph is not biregular")
    d0, d1 = prof
    w = build_bipartite_walk(g)
    plus, minus = pm1_eigenspace_dims(w)
    dec = sym_eig(adjacency_matrix(g))
    phases: list[tuple[float, int]] = []
    for lam, mult in dec.eigenvalues:
        if lam <= GROUP_TOL:
            continue  # negatives mirror positives; zero feeds the -1 space
        mu = lam * lam / (d0 * d1)
        if mu >= 1 - GROUP_TOL:
            continue  # top eigenvalue sqrt(d0 d1) feeds the +1 space
        phases.append((math.acos(2 * mu - 1), mult))
    return EigenphaseSet(tuple(sorted(phases)), plus, minus)


def complex_eigenprojection(
    w: WalkOperator, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral idempotents of U for the conjugate pair e^{+-i theta},
    theta = arccos(2 mu - 1), from an interior eigenvalue mu of the
    normalized biadjacency Gram matrix.
    """
    if not (GROUP_TOL < mu < 1 - GROUP_TOL):
        raise ValueError("mu must lie strictly between 0 and 1")
    n0 = _normalized_c0_cells(w)
    gram = n0.T @ np.asarray(w.P.to_floats()) @ n0
    dec = sym_eig(gram)
    if not any(abs(v - mu) <= GROUP_TOL for v, _ in dec.eigenvalues):
        raise ValueError(f"{mu} is not an eigenvalue of the normalized Gram matrix")
    e_mu = eigenprojector(dec, mu)
    wmat = n0 @ e_mu @ n0.T
    p = np.asarray(w.P.to_floats())
    theta = math.acos(2 * mu - 1)
    sin2 = math.sin(theta) ** 2

    def idempotent(sign: int) -> np.ndarray:
        z = cmath.exp(1j * sign * theta)
        return (
            (math.cos(theta) + 1) * wmat
            - (z + 1) * (p @ wmat)
            - (z.conjugate() + 1) * (wmat @ p)
            + 2 * (p @ wmat @ p)
        ) / sin2

    return idempotent(+1), idempotent(-1)


def _normalized_c0_cells(w: WalkOperator) -> np.ndarray:
    """Columns = the cells of c0 from build_partitions, each scaled to unit
    length."""
    cells, _ = build_partitions(w.graph)
    n0 = np.zeros((w.graph.num_edges, len(cells)))
    for i, cell in enumerate(cells):
        n0[list(cell), i] = 1 / math.sqrt(len(cell))
    return n0


def unitary_idempotents(u) -> list[tuple[float, np.ndarray]]:
    """Spectral idempotents of a real orthogonal matrix, as (phase, E) pairs.

    Eigenvalues are clustered by phase within GROUP_TOL; within a cluster
    the eigenvectors are orthonormalized, which is valid because U is
    normal.  Phases are signed in (-pi, pi].
    """
    m = np.asarray(u, dtype=float)
    vals, vecs = np.linalg.eig(m)
    phases = np.angle(vals)
    phases[np.abs(phases + math.pi) <= GROUP_TOL] = math.pi
    order = np.argsort(phases, kind="stable")
    out: list[tuple[float, np.ndarray]] = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and phases[order[j + 1]] - phases[order[i]] <= GROUP_TOL:
            j += 1
        idx = order[i : j + 1]
        block = vecs[:, idx]
        q, _ = np.linalg.qr(block)
        out.append((float(np.mean(phases[idx])), q @ q.conj().T))
        i = j + 1
    return out


class EigenvalueSupport(NamedTuple):
    """Signed phase pairs (theta_r, theta_s) that do not annihilate a state."""

    pairs: frozenset[tuple[float, float]]

    def phases(self) -> set[float]:
        return {t for pair in self.pairs for t in pair}


def eigenvalue_support(w: WalkOperator, edge: int) -> EigenvalueSupport:
    """Support of the edge state D_a = e_a e_a^T over U's spectral idempotents."""
    if not (0 <= edge < w.dim):
        raise ValueError(f"edge index {edge} out of range")
    u = np.asarray(w.U.to_floats())
    idems = unitary_idempotents(u)
    e_a = np.zeros(w.dim)
    e_a[edge] = 1.0
    present = [
        (theta, proj @ e_a)
        for theta, proj in idems
        if np.max(np.abs(proj @ e_a)) > SUPPORT_TOL
    ]
    pairs = set()
    for theta_r, vr in present:
        for theta_s, vs in present:
            if np.max(np.abs(vr)) * np.max(np.abs(vs)) > SUPPORT_TOL:
                pairs.add((round(theta_r, 12), round(theta_s, 12)))
    return EigenvalueSupport(frozenset(pairs))


def _regular_degree(g: Graph) -> int:
    degs = set(g.degrees())
    if len(degs) != 1:
        raise GraphError("graph is not regular")
    return degs.pop()


def subdivision_spectrum(g: Graph) -> list[tuple[float, int]]:
    """Spectrum of S(G) for d-regular G: +-sqrt(lambda + d) for every
    adjacency eigenvalue lambda != -d, zeros filling the dimension count.
    """
    d = _regular_degree(g)
    dec = sym_eig(adjacency_matrix(g))
    n, m = g.n, g.num_edges
    values: list[float] = []
    minus_d = 0
    for lam, mult in dec.eigenvalues:
        if abs(lam + d) <= GROUP_TOL:
            minus_d += mult
            continue
        root = math.sqrt(lam + d)
        values.extend([root] * mult)
        values.extend([-root] * mult)
    zeros = (n + m) - len(values)
    assert zeros == m - n + 2 * minus_d
    values.extend([0.0] * zeros)
    return _group_values(values)


def line_graph_spectrum(g: Graph) -> list[tuple[float, int]]:
    """Spectrum of L(G) for d-regular G: lambda + d - 2 shifted copies plus
    -2 with multiplicity |E| - |V|."""
    d = _regular_degree(g)
    dec = sym_eig(adjacency_matrix(g))
    values: list[float] = []
    for lam, mult in dec.eigenvalues:
        values.extend([lam + d - 2] * mult)
    values.extend([-2.0] * (g.num_edges - g.n))
    return _group_values(values)


def line_graph_spectrum_direct(g: Graph) -> list[tuple[float, int]]:
    """Direct diagonalization of the constructed line graph (cross-check)."""
    return sym_eig(adjacency_matrix(line_graph(g))).eigenvalues  # type: ignore[return-value]


def subdivision_spectrum_direct(g: Graph) -> list[tuple[float, int]]:
    """Direct diagonalization of the constructed subdivision graph."""
    return sym_eig(adjacency_matrix(subdivision(g))).eigenvalues  # type: ignore[return-value]
