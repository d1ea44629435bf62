"""Dirac-representation matrices as coordinate operators on quantized spacetime.

Builds the block matrices (beta diagonal, alpha off-diagonal with Pauli
blocks) once, as the read-only ``BETA`` and ``ALPHA`` that every other layer
uses, checks the Clifford relations in signature (+,-,-,-), represents the
noncommuting coordinates as x_i = kappa*a*alpha_i and t = kappa_t*(a/c)*beta,
recovers the normalization constants by least squares, extracts rotation and
boost generators from the coordinate brackets, verifies that the angular part
carries spin one-half, and checks the rotational covariance of the free
Hamiltonian for all (momentum, axis) cases in one pass over stacked 4x4
arrays, each case through the operations of a lone 4x4 in the same order, so
its norms are bit-identical to the one-case check.

Sign conventions fixed here (the source relations leave them open):

* The orbital rotation action about axis i on a momentum-space operator is
  L_i = i*hbar*(p_j d/dp_k - p_k d/dp_j) with (i, j, k) a cyclic triple;
  with this sign the orbital and spin actions on the free Dirac Hamiltonian
  cancel exactly.
* Boost generators are extracted as M_i = (hbar*c/(i*a^2)) [t, x_i] and
  validated only by closure of the Lorentz algebra.
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
class PhysicalParams:
    """hbar, c, m and the fundamental length a (defaults to hbar/(m c))."""

    hbar: float = 1.0
    c: float = 1.0
    m: float = 1.0
    a: float | None = None

    def __post_init__(self):
        for name in ("hbar", "c", "m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.a is None:
            object.__setattr__(self, "a", self.compton_wavelength())
        elif self.a < 0:
            raise ValueError("a must be nonnegative")

    def compton_wavelength(self) -> float:
        return self.hbar / (self.m * self.c)

    def compton_time(self) -> float:
        return self.hbar / (self.m * self.c**2)


@dataclass(frozen=True)
class DiracMatrixSet:
    """The named 4x4 matrices of the Dirac representation."""

    beta: np.ndarray
    alpha: tuple[np.ndarray, np.ndarray, np.ndarray]
    gamma: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    sigma_big: tuple[np.ndarray, np.ndarray, np.ndarray]
    spin: tuple[np.ndarray, np.ndarray, np.ndarray]


def build_dirac_set(params: PhysicalParams) -> DiracMatrixSet:
    """beta = diag(1,1,-1,-1); alpha_i with sigma_i in both off-diagonal blocks."""
    gamma = (BETA,) + tuple(BETA @ a for a in ALPHA)
    sigma_big = tuple(np.kron(I2, s) for s in PAULI)
    spin = tuple((params.hbar / 2) * s for s in sigma_big)
    return DiracMatrixSet(beta=BETA, alpha=ALPHA, gamma=gamma,
                          sigma_big=sigma_big, spin=spin)


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
    """Coordinate operators x_i = kappa*a*alpha_i, t = kappa_t*(a/c)*beta."""

    t_hat: np.ndarray
    x_hat: tuple[np.ndarray, np.ndarray, np.ndarray]
    params: PhysicalParams


def coordinate_rep(dset: DiracMatrixSet, params: PhysicalParams,
                   kappa: complex, kappa_t: complex) -> CoordinateRep:
    x_hat = tuple(kappa * params.a * a for a in dset.alpha)
    t_hat = kappa_t * (params.a / params.c) * dset.beta
    return CoordinateRep(t_hat=t_hat, x_hat=x_hat, params=params)


@dataclass(frozen=True)
class GeneratorSet:
    """Rotation generators L_i and boost generators M_i extracted from the brackets."""

    L: tuple[np.ndarray, np.ndarray, np.ndarray]
    M: tuple[np.ndarray, np.ndarray, np.ndarray]


def extract_generators(rep: CoordinateRep) -> GeneratorSet:
    """L_i from the cyclic [x_j, x_k] bracket, M_i from [t, x_i]."""
    hbar, c, a = rep.params.hbar, rep.params.c, rep.params.a
    if a == 0:
        raise ValueError("generator extraction needs a > 0 (undeformed limit has no bracket)")
    ls = []
    for i, j, k in _CYCLIC:
        ls.append((hbar / (1j * a**2)) * commutator(rep.x_hat[j], rep.x_hat[k]))
    ms = [(hbar * c / (1j * a**2)) * commutator(rep.t_hat, x) for x in rep.x_hat]
    return GeneratorSet(L=tuple(ls), M=tuple(ms))


def _levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in _CYCLIC:
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    return eps


_EPS = _levi_civita()


def verify_lorentz_algebra(gen: GeneratorSet, hbar: float) -> float:
    """Max residual of the J/K closure relations with J = L/hbar, K = M/hbar.

    Checks the three cyclic [J,J] and [K,K] brackets plus all nine [J_i,K_j]
    brackets.  A fully vanishing generator set closes trivially, so a zero
    residual shows closure only for nonzero generators.
    """
    J = [l / hbar for l in gen.L]
    K = [m / hbar for m in gen.M]
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


def is_spin_half(spectra, hbar: float, tol: float = 1e-12) -> bool:
    """True iff every L_i has spectrum {-hbar/2 (x2), +hbar/2 (x2)}."""
    target = np.array([-hbar / 2, -hbar / 2, hbar / 2, hbar / 2])
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


def solve_normalization(dset: DiracMatrixSet,
                        params: PhysicalParams) -> tuple[complex, complex, float]:
    """Recover the coordinate normalizations by least squares on their squares.

    [x, y] = kappa^2 a^2 [alpha_x, alpha_y] must equal (i a^2 / hbar) S_z; a^2
    cancels, so kappa^2 is the least-squares z of z [alpha_x, alpha_y] =
    (i/hbar) S_z.  At that kappa, K_i = kappa_t K1_i with K1 the boosts at
    kappa_t = 1, and kappa_t^2 is the least-squares z of z [K1_i, K1_j] =
    -i J_k over the cyclic triples.  The closed forms kappa = 1/2 and
    kappa_t = i/2 are not used.  Returns (kappa, kappa_t, residual), the
    residual being the larger of ||kappa^2 [alpha_x, alpha_y] - (i/hbar) S_z||_F
    and the Lorentz-closure residual at (kappa, kappa_t).
    """
    hbar = params.hbar
    bracket = commutator(dset.alpha[0], dset.alpha[1])
    target = (1j / hbar) * dset.spin[2]
    kappa = _root(_least_squares([bracket], [target]))
    gen = extract_generators(coordinate_rep(dset, params, kappa, 1.0))
    J = [l / hbar for l in gen.L]
    K1 = [m / hbar for m in gen.M]
    kappa_t = _root(_least_squares([commutator(K1[i], K1[j]) for i, j, _ in _CYCLIC],
                                   [-1j * J[k] for _, _, k in _CYCLIC]))
    closure = verify_lorentz_algebra(
        extract_generators(coordinate_rep(dset, params, kappa, kappa_t)), hbar)
    return kappa, kappa_t, max(frobenius(kappa**2 * bracket - target), closure)


def deformation_factor(params: PhysicalParams, p: float, which: str = "space") -> float:
    """Scalar multiplying i*hbar in the deformed Heisenberg bracket.

    which="space": 1 + (a p / hbar)^2 for [x, p_x];
    which="time":  1 - (a p / (hbar c))^2 for [t, p_t].
    At a = hbar/(m c) and p = m c the spatial factor is exactly 2.
    """
    if which == "space":
        return 1.0 + (params.a * p / params.hbar) ** 2
    if which == "time":
        return 1.0 - (params.a * p / (params.hbar * params.c)) ** 2
    raise ValueError(f"which must be 'space' or 'time', got {which!r}")


def mixed_deformation_rhs(params: PhysicalParams, p1: float, p2: float) -> float:
    """Coefficient of i*hbar in the mixed bracket [x, p_y]: (a/hbar)^2 p1 p2."""
    return (params.a / params.hbar) ** 2 * p1 * p2


def free_hamiltonian(dset: DiracMatrixSet, params: PhysicalParams,
                     p: np.ndarray) -> np.ndarray:
    """H(p) = c * alpha.p + beta m c^2 for momenta of shape (..., 3): one 4x4 per momentum."""
    p = np.asarray(p, dtype=float)
    h = params.m * params.c**2 * dset.beta.astype(complex)
    for i in range(3):
        h = h + (params.c * p[..., i, None, None]) * dset.alpha[i]
    return h


def rotation_covariance_check(dset: DiracMatrixSet, params: PhysicalParams,
                              momenta: np.ndarray) -> tuple[list[float], list[float]]:
    """Orbital vs orbital-plus-spin rotation action on the free Hamiltonian.

    For each row p of the (n, 3) ``momenta`` and each axis i, L_i H =
    i*hbar*c*(p_j alpha_k - p_k alpha_j) with (i, j, k) cyclic, in closed form
    from the linearity of H in p.  Returns (||L_i H||_F, ||L_i H + [H, S_i]||_F)
    as two lists in (row, axis) order; the second vanishes identically, showing
    the spin term is required whenever the first does not.
    """
    p = np.asarray(momenta, dtype=float)
    h, col = free_hamiltonian(dset, params, p), p[:, :, None, None]
    orbital = np.stack([1j * params.hbar * params.c * (col[:, j] * dset.alpha[k] -
                                                        col[:, k] * dset.alpha[j])
                        for _, j, k in _CYCLIC], axis=1)
    total = orbital + np.stack([commutator(h, s) for s in dset.spin], axis=1)
    return tuple([math.hypot(*m) for m in np.abs(a).reshape(-1, 16).tolist()]
                 for a in (orbital, total))
