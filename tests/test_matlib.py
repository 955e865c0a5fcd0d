import math
import warnings

import numpy as np
import pytest

from contain.cli import parse_scenario
from contain.graph import partition_laplacian
from contain.matlib import (
    TOL,
    NoConvergence,
    NonFinite,
    NotControllable,
    NotSymmetric,
    Singular,
    apply_tolerance_overrides,
    as_matrix,
    care_solve,
    controllability_matrix,
    frobenius,
    is_controllable,
    is_hurwitz,
    lyap_solve,
    solve_linear,
    sym_eigs,
)
from conftest import random_controllable_pair, ring_scenario


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_sym_eigs_frozen_two_by_two():
    assert np.allclose(sym_eigs([[2.0, 1.0], [1.0, 2.0]]), [1.0, 3.0])


def test_sym_eigs_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n))
        s = m + m.T
        values = sym_eigs(s)
        assert np.all(np.diff(values) >= -1e-12)
        assert abs(np.sum(values) - np.trace(s)) < 1e-10 * (1 + frobenius(s))
        for lam in values:
            # each value makes s - lam I singular
            assert np.linalg.svd(s - lam * np.eye(n), compute_uv=False)[-1] < 1e-8 * (1 + frobenius(s))


def test_sym_eigs_returns_ascending_values_of_eigh():
    # eigh, not eigvalsh: the two differ in the last bit on some inputs, and
    # lambda_min(L1) feeds the closed-loop dynamics
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.standard_normal((int(rng.integers(1, 9)),) * 2)
        s = m + m.T
        values = sym_eigs(s)
        assert isinstance(values, np.ndarray)
        assert np.array_equal(values, np.linalg.eigh(0.5 * (s + s.T))[0])


def test_sym_eigs_feeds_eigh_the_symmetrized_input_bit_for_bit(monkeypatch):
    # the skew check and 0.5 (s + s.T) share one scratch matrix; eigh must
    # still see the bits of that expression, zero signs included, on nearly
    # symmetric matrices (skew within TOL.sym) and on the 510-follower ring's L1
    eigh = np.linalg.eigh
    seen = []

    def spy(a):
        seen.append(a.copy())
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rng = np.random.default_rng(17)
    matrices = [partition_laplacian(parse_scenario(ring_scenario(510, 1)).topology).L1]
    for _ in range(40):
        size = int(rng.integers(1, 12))
        m = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-3.0, 3.0)
        matrices.append(m + m.T + rng.uniform(-0.25, 0.25, m.shape) * TOL.sym)
    for s in matrices:
        values = sym_eigs(s)
        want = 0.5 * (s + s.T)
        assert np.array_equal(seen[-1], want)
        assert np.array_equal(np.signbit(seen[-1]), np.signbit(want))
        assert np.array_equal(values, eigh(want)[0])


def test_sym_eigs_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eigs([[0.0, 1.0], [0.0, 0.0]])


def test_solve_linear_known_system():
    a = [[2.0, 0.0], [0.0, 4.0]]
    x = solve_linear(a, [[2.0], [8.0]])
    assert np.allclose(x, [[1.0], [2.0]])


def test_solve_linear_needs_row_swap():
    # zero leading pivot forces partial pivoting to reorder
    a = [[0.0, 1.0], [1.0, 0.0]]
    x = solve_linear(a, [[3.0], [5.0]])
    assert np.allclose(x, [[5.0], [3.0]])


def test_solve_linear_matches_numpy_random():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        rhs = rng.standard_normal((n, int(rng.integers(1, 4))))
        x = solve_linear(a, rhs)
        assert np.allclose(x, np.linalg.solve(a, rhs), atol=1e-9)


def test_solve_linear_singular():
    with pytest.raises(Singular):
        solve_linear([[1.0, 2.0], [2.0, 4.0]], [[1.0], [1.0]])


def test_lyap_solve_scalar():
    # f x + x f' = -q with f = -1, q = 2 gives x = 1
    x = lyap_solve([[-1.0]], [[2.0]])
    assert np.allclose(x, [[1.0]])


def test_lyap_solve_residual_and_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        r = rng.standard_normal((n, n))
        f = r - (frobenius(r) + 1.0) * np.eye(n)  # strictly stable
        x = lyap_solve(f, np.eye(n))
        res = f @ x + x @ f.T + np.eye(n)
        assert frobenius(res) < 1e-8
        assert frobenius(x - x.T) < 1e-8
        assert sym_eigs(0.5 * (x + x.T))[0] > 0.0


def test_lyap_solve_singular_pair():
    # f and -f' share the eigenvalue 0, so the operator is singular
    with pytest.raises(Singular):
        lyap_solve([[0.0]], [[1.0]])


def test_is_hurwitz_cases():
    assert is_hurwitz([[0.0, 1.0], [-1.0, -1.0]])
    assert not is_hurwitz([[0.0, 1.0], [-1.0, 1.0]])
    assert not is_hurwitz([[0.0]])
    assert is_hurwitz([[-1e-3]])


def test_controllability_matrix_double_integrator():
    a = [[0.0, 1.0], [0.0, 0.0]]
    b = [[0.0], [1.0]]
    ctrb = controllability_matrix(a, b)
    assert np.allclose(ctrb, [[0.0, 1.0], [1.0, 0.0]])
    assert is_controllable(a, b)


def test_is_controllable_detects_deficiency():
    # both states see the same input and identical dynamics
    assert not is_controllable(np.eye(2), [[1.0], [1.0]])


@pytest.mark.parametrize("n", range(2, 11))
def test_is_controllable_on_constructed_pairs(n):
    # for each k < n: A block upper triangular, B zero on the last n - k states,
    # so no input reaches them; a random similarity hides the structure
    rng = np.random.default_rng(n)
    for k in range(1, n):
        a = rng.standard_normal((n, n))
        a[k:, :k] = 0.0
        b = np.zeros((n, int(rng.integers(1, 4))))
        b[:k] = rng.standard_normal((k, b.shape[1]))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        t = q * np.exp(rng.uniform(-1.0, 1.0, n))  # condition number below e^2
        t_inv = np.linalg.inv(t)
        assert not is_controllable(t @ a @ t_inv, t @ b), k
        # the same A with an input on every state is controllable
        b[k:] = rng.standard_normal((n - k, b.shape[1]))
        assert is_controllable(t @ a @ t_inv, t @ b), k


def test_frobenius_keeps_the_plain_sum_bits():
    # care_solve's shift 1 + ||a||_F and is_controllable's tolerance read
    # these bits, so every sum that does not overflow keeps them
    rng = np.random.default_rng(8)
    for scale in (0.0, 1e-300, 1e-10, 1.0, 1e10, 1e150):
        for shape in ((1, 1), (2, 3), (7, 7), (40, 40)):
            a = scale * rng.standard_normal(shape)
            assert frobenius(a) == float(np.sqrt(np.sum(a * a))), (scale, shape)


def test_frobenius_falls_back_to_scaling_only_on_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius([[3e200, 4e200]]) == pytest.approx(5e200, rel=1e-15)
        assert frobenius([[1e308, -1e308]]) == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
        assert frobenius([[1.7e308, 1.7e308]]) == math.inf
        assert frobenius([[math.inf, 1.0]]) == math.inf
        assert math.isnan(frobenius([[math.nan, 1e200]]))


def test_is_controllable_with_a_huge_input_column():
    # scaling B keeps (A, B) controllable, so the rank tolerance must not overflow
    a = [[0.0, 1.0], [-1.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_controllable(a, [[0.0], [1e200]])
        assert is_controllable(a, [[0.0], [1.0]])


def test_care_solve_names_an_overflowing_b_b_transpose():
    # controllable, but B B' overflows before the Bass seed's Lyapunov solve
    a = [[0.0, 1.0], [-1.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^B B' overflows"):
            care_solve(a, [[0.0], [1e200]], np.eye(2))


def test_care_scalar_oracles():
    x = care_solve([[0.0]], [[1.0]], [[1.0]])
    assert np.allclose(x, [[1.0]], atol=1e-12)
    x = care_solve([[-1.0]], [[1.0]], [[1.0]])
    assert abs(float(x[0, 0]) - (math.sqrt(2.0) - 1.0)) < 1e-12


def test_care_residual_history():
    a = np.array([[0.0, 1.0], [-1.0, 1.0]])
    b = np.array([[0.0], [1.0]])
    x, hist = care_solve(a, b, np.eye(2), return_residuals=True)
    assert hist[-1] <= TOL.solve * (1.0 + frobenius(np.eye(2)))
    assert hist[-1] <= hist[0]
    res = a.T @ x + x @ a - x @ b @ b.T @ x + np.eye(2)
    assert frobenius(res) < 1e-9


def test_care_random_pairs_stabilize():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a, b = random_controllable_pair(rng)
        n = a.shape[0]
        x = care_solve(a, b, np.eye(n))
        res = a.T @ x + x @ a - x @ b @ b.T @ x + np.eye(n)
        assert frobenius(res) < 1e-9
        assert sym_eigs(x)[0] > 0.0
        assert is_hurwitz(a - b @ (b.T @ x))


def test_care_rejects_uncontrollable():
    with pytest.raises(NotControllable):
        care_solve(np.eye(2), [[1.0], [1.0]], np.eye(2))


def test_care_rejects_bad_weight():
    a = [[0.0]]
    b = [[1.0]]
    with pytest.raises(ValueError):
        care_solve(a, b, [[-1.0]])
    with pytest.raises(NotSymmetric):
        care_solve([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.5], [0.0, 1.0]])


def test_tolerance_overrides_roundtrip():
    old = (TOL.solve, TOL.eig, TOL.pivot, TOL.sym)
    try:
        apply_tolerance_overrides("solve=1e-6,pivot=1e-10")
        assert TOL.solve == 1e-6
        assert TOL.pivot == 1e-10
        apply_tolerance_overrides("1e-7")
        assert TOL.solve == 1e-7
        assert TOL.sym == 1e-7
        with pytest.raises(ValueError):
            apply_tolerance_overrides("nope=3")
    finally:
        TOL.solve, TOL.eig, TOL.pivot, TOL.sym = old
