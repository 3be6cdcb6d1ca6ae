"""Random-matrix oracle for the diagram combinatorics.

A BlockSystem is a finite-matrix stand-in for the T and U operators of
M objects, with no kernel, decay, sign or window of the chain engine:
on it the diagram sum of ``enumerate_diagrams`` is compared, for any M,
with the power traces and the exact ln det of its coupling matrix.  The
engine's own operator is checked by ``casimir2d verify`` and
``tests/test_assembly.py``.
"""

from dataclasses import dataclass, field

import numpy as np

from casimir2d.diagrams import enumerate_diagrams
from casimir2d.errors import ValidationError


@dataclass
class BlockSystem:
    """t_blocks[i] is object i's square T matrix; u_blocks[(i, j)] the
    translation matrix appearing in T_i U_{ij}."""

    M: int
    t_blocks: dict = field(default_factory=dict)
    u_blocks: dict = field(default_factory=dict)

    def coupling_matrix(self) -> np.ndarray:
        """Assembled block matrix K with K_ab = T_a U_ab, zero diagonal."""
        dims = [self.t_blocks[i].shape[0] for i in range(1, self.M + 1)]
        offs = np.concatenate([[0], np.cumsum(dims)])
        K = np.zeros((offs[-1], offs[-1]), dtype=complex)
        for a in range(1, self.M + 1):
            for b in range(1, self.M + 1):
                if a == b or (a, b) not in self.u_blocks:
                    continue
                blk = self.t_blocks[a] @ self.u_blocks[(a, b)]
                K[offs[a - 1]:offs[a], offs[b - 1]:offs[b]] = blk
        return K

    def diagram_trace(self, word) -> complex:
        """tr prod_k T_{i_k} U_{i_k, i_{k+1}} around the cycle, e.g.
        word (1, 2, 3) -> tr(T1 U12 T2 U23 T3 U31)."""
        n = len(word)
        mats = []
        for k in range(n):
            a, b = word[k], word[(k + 1) % n]
            u = self.u_blocks.get((a, b))
            if u is None:
                return 0.0 + 0.0j
            mats.append(self.t_blocks[a] @ u)
        acc = mats[0]
        for m in mats[1:]:
            acc = acc @ m
        return complex(np.trace(acc))


def lndet_oracle(sys: BlockSystem, N_max: int):
    """(diagram series sum, exact -tr ln(I-K)) for a BlockSystem.

    Refuses if the coupling matrix has spectral radius >= 1 (series
    divergent).
    """
    K = sys.coupling_matrix()
    lam = np.linalg.eigvals(K)
    rho = float(np.max(np.abs(lam))) if lam.size else 0.0
    if rho >= 1.0:
        raise ValidationError(
            f"spectral radius {rho:.3f} >= 1: reflection series divergent"
        )
    series = 0.0 + 0.0j
    for diag in enumerate_diagrams(sys.M, N_max):
        series += float(diag.symmetry_factor) * sys.diagram_trace(diag.word)
    exact = complex(-np.sum(np.log(1.0 - lam)))
    return series, exact


def random_block_system(rng, m: int, dim: int,
                        rho_target: float) -> BlockSystem:
    """Random dense complex BlockSystem of m objects with blocks of
    dim x dim, rescaled to the spectral radius ``rho_target``."""
    sysb = BlockSystem(M=m)
    for i in range(1, m + 1):
        sysb.t_blocks[i] = (rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            if a != b:
                sysb.u_blocks[(a, b)] = (
                    rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim)))
    K = sysb.coupling_matrix()
    rho = float(np.max(np.abs(np.linalg.eigvals(K))))
    for i in range(1, m + 1):
        sysb.t_blocks[i] = sysb.t_blocks[i] * (rho_target / max(rho, 1e-12))
    return sysb


def truncated_lndet(sys: BlockSystem, n_max: int) -> complex:
    """sum_{n<=n_max} tr(K^n)/n, the truncation of -tr ln(I - K): the
    power-trace form of the diagram sum.

    Independent oracle for the diagram combinatorics (Rules 1-3 and
    symmetry factors): both sides truncate the log series at the same
    order, so they must agree to roundoff.
    """
    K = sys.coupling_matrix()
    acc = 0.0 + 0.0j
    Kn = np.eye(K.shape[0], dtype=complex)
    for n in range(1, n_max + 1):
        Kn = Kn @ K
        acc += np.trace(Kn) / n
    return acc
