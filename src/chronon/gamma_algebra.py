"""Dirac-representation matrices as coordinate operators on quantized spacetime.

In Compton units (hbar = c = m = 1).  Builds the block matrices (beta
diagonal, alpha off-diagonal with Pauli blocks) once, as the read-only
``BETA`` and ``ALPHA`` that every other layer uses, checks the Clifford
relations in signature (+,-,-,-), represents the noncommuting coordinates in
units of the fundamental length a as x_i = kappa*alpha_i and t = kappa_t*beta
(a^2 cancels from every bracket the generators and normalizations are read
from), recovers the normalization constants by least squares, extracts
rotation and boost generators from the coordinate brackets, verifies that
the angular part carries spin one-half, and checks the rotational covariance
of the free Hamiltonian for all (momentum, axis) cases in one pass over
stacked 4x4 arrays, each case through the operations of a lone 4x4 in the
same order, so its norms are bit-identical to the one-case check.  Only the
deformation factors take a, as a' = a m c/hbar.

Sign conventions fixed here (the source relations leave them open):

* The orbital rotation action about axis i on a momentum-space operator is
  L_i = i*(p_j d/dp_k - p_k d/dp_j) with (i, j, k) a cyclic triple; with
  this sign the orbital and spin actions on the free Dirac Hamiltonian
  cancel exactly.
* Boost generators are extracted as M_i = [t, x_i]/i and validated only by
  closure of the Lorentz algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)
I2 = np.eye(2, dtype=complex)


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


# The Dirac representation itself; every DiracMatrixSet shares these arrays.
BETA = _frozen(np.kron(PAULI_Z, I2))
ALPHA = tuple(_frozen(np.kron(PAULI_X, s)) for s in PAULI)


class NotHermitianError(ValueError):
    """Matrix fails the Hermiticity tolerance required by the operation."""


def is_hermitian(a: np.ndarray, rtol: float = 1e-12) -> bool:
    return np.linalg.norm(a - a.conj().T) <= rtol * max(np.linalg.norm(a), 1.0)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    return a @ b - b @ a


def frobenius(a: np.ndarray) -> float:
    """||A||_F; math.hypot scales internally, so entries near the float range survive."""
    return math.hypot(*np.abs(a).ravel().tolist())


METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class DiracMatrixSet:
    """The named 4x4 matrices of the Dirac representation."""

    beta: np.ndarray
    alpha: tuple[np.ndarray, np.ndarray, np.ndarray]
    gamma: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    spin: tuple[np.ndarray, np.ndarray, np.ndarray]


def build_dirac_set() -> DiracMatrixSet:
    """beta = diag(1,1,-1,-1); alpha_i with sigma_i in both off-diagonal blocks."""
    gamma = (BETA,) + tuple(BETA @ a for a in ALPHA)
    spin = tuple(0.5 * np.kron(I2, s) for s in PAULI)
    return DiracMatrixSet(beta=BETA, alpha=ALPHA, gamma=gamma, spin=spin)


def verify_clifford(dset: DiracMatrixSet) -> float:
    """Max Frobenius residual of {gamma^mu, gamma^nu} = 2 eta^{mu nu} I over all 10 pairs."""
    eye4 = np.eye(4, dtype=complex)
    worst = 0.0
    for mu in range(4):
        for nu in range(mu, 4):
            g_mu, g_nu = dset.gamma[mu], dset.gamma[nu]
            res = g_mu @ g_nu + g_nu @ g_mu - 2 * METRIC[mu, nu] * eye4
            worst = max(worst, frobenius(res))
    return worst


@dataclass(frozen=True)
class CoordinateRep:
    """Coordinate operators in units of a: x_i = kappa*alpha_i, t = kappa_t*beta."""

    t_hat: np.ndarray
    x_hat: tuple[np.ndarray, np.ndarray, np.ndarray]


def coordinate_rep(dset: DiracMatrixSet, kappa: complex, kappa_t: complex) -> CoordinateRep:
    x_hat = tuple(kappa * a for a in dset.alpha)
    return CoordinateRep(t_hat=kappa_t * dset.beta, x_hat=x_hat)


@dataclass(frozen=True)
class GeneratorSet:
    """Rotation generators L_i and boost generators M_i extracted from the brackets."""

    L: tuple[np.ndarray, np.ndarray, np.ndarray]
    M: tuple[np.ndarray, np.ndarray, np.ndarray]


def extract_generators(rep: CoordinateRep) -> GeneratorSet:
    """L_i = [x_j, x_k]/i over the cyclic triples, M_i = [t, x_i]/i."""
    ls = [(1 / 1j) * commutator(rep.x_hat[j], rep.x_hat[k]) for _, j, k in _CYCLIC]
    ms = [(1 / 1j) * commutator(rep.t_hat, x) for x in rep.x_hat]
    return GeneratorSet(L=tuple(ls), M=tuple(ms))


def _levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in _CYCLIC:
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    return eps


_EPS = _levi_civita()


def verify_lorentz_algebra(gen: GeneratorSet) -> float:
    """Max residual of the J/K closure relations with J = L, K = M.

    Checks the three cyclic [J,J] and [K,K] brackets plus all nine [J_i,K_j]
    brackets.  A fully vanishing generator set closes trivially, so a zero
    residual shows closure only for nonzero generators.
    """
    J, K = gen.L, gen.M
    worst = 0.0
    for i, j, k in _CYCLIC:
        worst = max(worst, frobenius(commutator(J[i], J[j]) - 1j * J[k]))
        worst = max(worst, frobenius(commutator(K[i], K[j]) + 1j * J[k]))
    for i in range(3):
        for j in range(3):
            target = sum(_EPS[i, j, k] * K[k] for k in range(3))
            worst = max(worst, frobenius(commutator(J[i], K[j]) - 1j * target))
    return worst


def spin_spectrum(gen: GeneratorSet) -> list[np.ndarray]:
    """Sorted eigenvalues of each L_i (rejects non-Hermitian generators)."""
    spectra = []
    for i, l in enumerate(gen.L):
        if not is_hermitian(l):
            raise NotHermitianError(f"L_{'xyz'[i]} is not Hermitian")
        spectra.append(np.linalg.eigvalsh(l))
    return spectra


def is_spin_half(spectra, tol: float) -> bool:
    """True iff every L_i has spectrum {-1/2 (x2), +1/2 (x2)}."""
    target = np.array([-0.5, -0.5, 0.5, 0.5])
    return all(np.max(np.abs(vals - target)) <= tol for vals in spectra)


def _least_squares(brackets, targets) -> complex:
    """z minimizing sum_k ||z B_k - T_k||_F^2, or 0 when every B_k vanishes."""
    norm2 = sum(np.vdot(b, b).real for b in brackets)
    if not norm2:
        return 0j
    return complex(sum(np.vdot(b, t) for b, t in zip(brackets, targets)) / norm2)


def _root(z: complex) -> complex:
    """The square root of z with the larger real part, then the larger imaginary part."""
    r = complex(np.sqrt(z))
    return max(r, -r, key=lambda w: (w.real, w.imag))


def solve_normalization(dset: DiracMatrixSet) -> tuple[complex, complex, float]:
    """Recover the coordinate normalizations by least squares on their squares.

    [x, y] = kappa^2 [alpha_x, alpha_y] must equal i S_z (in units of a, where
    a^2 has cancelled), so kappa^2 is the least-squares z of z [alpha_x, alpha_y]
    = i S_z.  At that kappa, K_i = kappa_t K1_i with K1 the boosts at
    kappa_t = 1, and kappa_t^2 is the least-squares z of z [K1_i, K1_j] =
    -i J_k over the cyclic triples.  The closed forms kappa = 1/2 and
    kappa_t = i/2 are not used.  Returns (kappa, kappa_t, residual), the
    residual being the larger of ||kappa^2 [alpha_x, alpha_y] - i S_z||_F
    and the Lorentz-closure residual at (kappa, kappa_t).
    """
    bracket = commutator(dset.alpha[0], dset.alpha[1])
    target = 1j * dset.spin[2]
    kappa = _root(_least_squares([bracket], [target]))
    gen = extract_generators(coordinate_rep(dset, kappa, 1.0))
    J, K1 = gen.L, gen.M
    kappa_t = _root(_least_squares([commutator(K1[i], K1[j]) for i, j, _ in _CYCLIC],
                                   [-1j * J[k] for _, _, k in _CYCLIC]))
    closure = verify_lorentz_algebra(extract_generators(coordinate_rep(dset, kappa, kappa_t)))
    return kappa, kappa_t, max(frobenius(kappa**2 * bracket - target), closure)


def deformation_factor(a: float, p: float) -> float:
    """Scalar multiplying i in the deformed Heisenberg bracket [x, p_x]: 1 + (a p)^2.

    At a = 1 (the Compton wavelength) and p = 1 (m c) it is exactly 2.
    """
    return 1.0 + (a * p) ** 2


def mixed_deformation_rhs(a: float, p1: float, p2: float) -> float:
    """Coefficient of i in the mixed bracket [x, p_y]: a^2 p1 p2."""
    return a**2 * p1 * p2


def free_hamiltonian(dset: DiracMatrixSet, p: np.ndarray) -> np.ndarray:
    """H(p) = alpha.p + beta for momenta of shape (..., 3): one 4x4 per momentum."""
    p = np.asarray(p, dtype=float)
    h = dset.beta.astype(complex)
    for i in range(3):
        h = h + p[..., i, None, None] * dset.alpha[i]
    return h


def rotation_covariance_check(dset: DiracMatrixSet,
                              momenta: np.ndarray) -> tuple[list[float], list[float]]:
    """Orbital vs orbital-plus-spin rotation action on the free Hamiltonian.

    For each row p of the (n, 3) ``momenta`` and each axis i, L_i H =
    i*(p_j alpha_k - p_k alpha_j) with (i, j, k) cyclic, in closed form
    from the linearity of H in p.  Returns (||L_i H||_F, ||L_i H + [H, S_i]||_F)
    as two lists in (row, axis) order; the second vanishes identically, showing
    the spin term is required whenever the first does not.
    """
    p = np.asarray(momenta, dtype=float)
    h, col = free_hamiltonian(dset, p), p[:, :, None, None]
    orbital = np.stack([1j * (col[:, j] * dset.alpha[k] - col[:, k] * dset.alpha[j])
                        for _, j, k in _CYCLIC], axis=1)
    total = orbital + np.stack([commutator(h, s) for s in dset.spin], axis=1)
    return tuple([math.hypot(*m) for m in np.abs(a).reshape(-1, 16).tolist()]
                 for a in (orbital, total))
