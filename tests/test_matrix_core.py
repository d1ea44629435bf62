"""Tests of the matrix helpers in gamma_algebra (commutator, frobenius).

The helpers lived in a separate matrix_core module before gamma_algebra became
the one home of the Dirac matrices; the file keeps that name so the test ids
stay the same.  ``frobenius`` is ``np.linalg.norm`` over the last two axes: every
matrix it sees is of order one in Compton units, so it takes no overflow-safe path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon.gamma_algebra import ALPHA, PAULI_X, PAULI_Y, PAULI_Z, SPIN, commutator, frobenius


def finite_complex(max_magnitude=5.0):
    real = st.floats(-max_magnitude, max_magnitude, allow_nan=False)
    return st.builds(complex, real, real)


def matrices_2x2():
    return st.lists(finite_complex(), min_size=4, max_size=4).map(
        lambda xs: np.array(xs, dtype=complex).reshape(2, 2))


class TestCommutator:
    def test_self_commutator_is_zero(self):
        a = np.array([[1, 2j], [3, 4]], dtype=complex)
        assert np.array_equal(commutator(a, a), np.zeros((2, 2)))

    def test_pauli_algebra(self):
        np.testing.assert_allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z, atol=1e-15)

    def test_alpha_commutator_gives_big_sigma(self):
        # [alpha_x, alpha_y] = 2i Sigma_z, by direct 4x4 multiplication.
        ax, ay = ALPHA[0], ALPHA[1]
        oracle = ax @ ay - ay @ ax
        np.testing.assert_allclose(commutator(ax, ay), oracle, atol=0)
        np.testing.assert_allclose(oracle, 2j * (2 * SPIN[2]), atol=1e-15)

    @given(matrices_2x2(), matrices_2x2())
    def test_antisymmetry(self, a, b):
        np.testing.assert_allclose(commutator(a, b), -commutator(b, a), atol=1e-9)

    @given(matrices_2x2(), matrices_2x2(), matrices_2x2())
    @settings(max_examples=50)
    def test_jacobi_identity(self, a, b, c):
        lhs = (commutator(commutator(a, b), c)
               + commutator(commutator(b, c), a)
               + commutator(commutator(c, a), b))
        scale = max(frobenius(a) * frobenius(b) * frobenius(c), 1.0)
        assert frobenius(lhs) <= 1e-10 * scale

    @given(matrices_2x2(), matrices_2x2(), matrices_2x2())
    @settings(max_examples=50)
    def test_bilinearity(self, a, b, c):
        lhs = commutator(a + b, c)
        rhs = commutator(a, c) + commutator(b, c)
        scale = max(frobenius(a) + frobenius(b), 1.0) * max(frobenius(c), 1.0)
        assert frobenius(lhs - rhs) <= 1e-10 * scale


class TestFrobenius:
    @pytest.mark.parametrize("scale", [1.0])
    def test_entries_near_the_float_range(self, scale):
        assert frobenius(np.full((4, 4), 3j * scale)) == pytest.approx(12 * scale, rel=1e-15, abs=0)

    def test_stack_takes_one_norm_per_matrix(self):
        # A stack gives each matrix's norm, bit for bit as the lone matrix gives it.
        stack = np.random.default_rng(3).normal(size=(5, 3, 4, 4)) * (1 + 1j)
        norms = frobenius(stack)
        assert norms.shape == (5, 3)
        assert [frobenius(m) for m in stack.reshape(-1, 4, 4)] == norms.ravel().tolist()
