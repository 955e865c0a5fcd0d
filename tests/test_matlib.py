import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from contain import matlib
from contain.cli import default_scenario, parse_scenario
from contain.control import ControllerConfig
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
    check_solve,
    controllability_matrix,
    frobenius,
    is_controllable,
    is_hurwitz,
    lyap_solve,
    solve_linear,
    spd_eigs,
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
    # eigvalsh, which computes no eigenvectors; its bits are pinned, since
    # lambda_min(L1) feeds the closed-loop dynamics
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.standard_normal((int(rng.integers(1, 9)),) * 2)
        s = m + m.T
        values = sym_eigs(s)
        assert isinstance(values, np.ndarray)
        assert np.array_equal(values, np.linalg.eigvalsh(0.5 * (s + s.T)))


def test_sym_eigs_feeds_eigh_the_symmetrized_input_bit_for_bit(monkeypatch):
    # the skew check and 0.5 (s + s.T) share one scratch matrix; eigvalsh must
    # still see the bits of that expression, zero signs included, on nearly
    # symmetric matrices (skew within TOL.solve ||s||_F) and on the 510-follower ring's L1
    eigvalsh = np.linalg.eigvalsh
    seen = []

    def spy(a):
        seen.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rng = np.random.default_rng(17)
    matrices = [partition_laplacian(parse_scenario(ring_scenario(510, 1)).topology).L1]
    for _ in range(40):
        size = int(rng.integers(1, 12))
        m = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-3.0, 3.0)
        s = m + m.T
        matrices.append(s + rng.uniform(-0.25, 0.25, m.shape) * TOL.solve * frobenius(s))
    for s in matrices:
        values = sym_eigs(s)
        want = 0.5 * (s + s.T)
        assert np.array_equal(seen[-1], want)
        assert np.array_equal(np.signbit(seen[-1]), np.signbit(want))
        assert np.array_equal(values, eigvalsh(want))


def _symmetrized_eigs(s):
    """The eigenvalues sym_eigs returned before it handed eigvalsh an exactly
    symmetric input as is: eigvalsh of 0.5 (s + s.T), overflow and all."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.eigvalsh(0.5 * (s + s.T))


def test_sym_eigs_gives_the_symmetrized_bits_on_symmetric_input():
    # L1 is exactly symmetric, so eigvalsh gets it as is; the values must be
    # those of 0.5 (s + s.T), on the default and ring L1, on symmetric matrices
    # with -0.0 entries and on nearly symmetric ones (which still get
    # symmetrized); past DBL_MAX / 2, where s + s.T overflows, they are
    # eigvalsh's of s
    rng = np.random.default_rng(29)
    exact = [partition_laplacian(parse_scenario(text).topology).L1
             for text in (default_scenario(), ring_scenario(510, 1))]
    for _ in range(30):
        size = int(rng.integers(1, 10))
        m = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-3.0, 3.0)
        m[rng.random(m.shape) < 0.4] = 0.0
        s = np.triu(m) + np.triu(m, 1).T
        s[s == 0.0] = -0.0 if rng.random() < 0.5 else 0.0
        exact.append(s)
    for s in exact:
        assert np.array_equal(s, s.T)
        assert np.array_equal(sym_eigs(s).view(np.uint64), _symmetrized_eigs(s).view(np.uint64))
    assert any(np.signbit(s[s == 0.0]).any() for s in exact)

    differ = 0
    for _ in range(30):
        size = int(rng.integers(2, 10))
        m = rng.standard_normal((size, size))
        s = m + m.T
        s += rng.uniform(-0.25, 0.25, m.shape) * TOL.solve * frobenius(s)
        values = sym_eigs(s)
        assert np.array_equal(values.view(np.uint64), _symmetrized_eigs(s).view(np.uint64))
        differ += not np.array_equal(values, np.linalg.eigvalsh(s))
    assert differ >= 10, differ

    huge = np.array([[1.5e308, 1.0], [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sym_eigs(huge)
    assert np.isfinite(values).all()
    assert np.array_equal(values.view(np.uint64), np.linalg.eigvalsh(huge).view(np.uint64))
    assert np.isnan(_symmetrized_eigs(huge)).all()


def test_sym_eigs_rejects_asymmetric():
    with pytest.raises(NotSymmetric, match=r"^s is not symmetric: its skew max\|s - s'\| "
                                           r"1\.000e\+00 exceeds the solve tolerance 1\.0e-09 "
                                           r"times \|s\|_F \(1\.000e\+00\)$"):
        sym_eigs([[0.0, 1.0], [0.0, 0.0]])


def test_sym_eigs_symmetrizes_a_skewed_matrix_near_the_float_range_without_overflow():
    # 0.5 s + 0.5 s' is finite wherever s is; 0.5 (s + s') overflowed to
    # lambda_min nan here
    s = np.array([[1e308, 1.0], [0.0, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sym_eigs(s)
    assert np.isfinite(values).all() and values[0] > 0.0


def test_sym_eigs_makes_no_scratch_matrix_for_a_symmetric_input():
    # the ring's L1 is exactly symmetric: a boolean comparison finds it so,
    # where a float skew matrix would take all of l1.nbytes (LAPACK's own
    # copy of the input is not traced)
    l1 = partition_laplacian(parse_scenario(ring_scenario(510, 1)).topology).L1
    tracemalloc.start()
    try:
        sym_eigs(l1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < l1.nbytes / 2, peak


def test_spd_eigs_is_the_one_positive_definiteness_check(monkeypatch):
    assert np.array_equal(spd_eigs(np.diag([2.0, 1.0]), "w"), [1.0, 2.0])
    with pytest.raises(Singular, match=r"^w must be positive definite: lambda_min 0\.000e\+00 "
                                       r"is not above the eig tolerance 1\.0e-10$"):
        spd_eigs(np.diag([1.0, 0.0]), "w")
    # a nan lambda_min is not above the floor: care_solve rejects it as
    # ControllerConfig does
    monkeypatch.setattr(matlib, "sym_eigs", lambda s, name="s": np.array([math.nan, 1.0]))
    with pytest.raises(Singular, match="q must be positive definite: lambda_min nan"):
        care_solve([[0.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="are_weight must be positive definite: lambda_min nan"):
        ControllerConfig(kind="continuous_static", kappa=0.1, are_weight=np.eye(2))


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


def test_solve_linear_trusts_a_small_pivot_by_its_backward_error():
    # a pivot of 1e-13 ||a||_F gives an exact x; only the backward error judges it
    x = solve_linear(np.diag([1.0, 1e-13]), [[1.0], [1.0]])
    assert np.array_equal(x, [[1.0], [1e13]])


@pytest.mark.parametrize("rhs", [[[1.0], [1.0]], [[1.0], [2.0]]], ids=["inf", "nan"])
def test_solve_linear_rejects_a_zero_pivot_by_the_solve_tolerance_without_a_warning(rhs):
    # the exact zero pivot leaves inf or nan in x, which no backward error trusts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Singular, match="exceeds the solve tolerance 1.0e-09 times"):
            solve_linear([[1.0, 2.0], [2.0, 4.0]], rhs)


def test_solve_linear_names_a_solution_that_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^the solution overflows$"):
            solve_linear(np.diag([1.0, 1e-10]), [[1.0], [1e300]])


def test_check_solve_is_the_one_trust_rule():
    # the bound is TOL.solve (||a|| ||x|| + ||rhs||): a solution whose norm
    # overflows is not trusted, although inf <= TOL.solve * inf
    check_solve(np.eye(2), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(Singular, match="the solve tolerance"):
        check_solve(np.eye(1), np.array([[math.inf]]), np.ones((1, 1)))
    with pytest.raises(Singular, match="linear-solve residual 1.000e-06"):
        check_solve(np.eye(1), np.array([[1.0 + 1e-6]]), np.ones((1, 1)))


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
    # an eigenvalue test holds at any scale
    assert is_hurwitz([[-1e12]])
    assert is_hurwitz(1e11 * np.array([[0.0, 1.0], [-1.0, -1.0]]))
    # eigenvalues +-i: marginally stable is not Hurwitz
    assert not is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])


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


@pytest.mark.parametrize("scale,words", [
    (1e200, "the Riccati iteration overflows: its weight Q + X B B' X"),
    (1e308, "the Riccati iteration overflows: its next X is not finite"),
])
def test_care_solve_names_what_overflows_in_its_iteration(scale, words):
    # a finite weight whose Newton iterates overflow: the message names the
    # iteration's quantity, not a kernel argument
    a = [[0.0, 1.0], [-1.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=f"^{re.escape(words)}"):
            care_solve(a, [[0.0], [1.0]], scale * np.eye(2))


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


def reference_care_solve(a, b, q):
    """care_solve's Newton-Kleinman iteration as it was written before its
    step became one function, kept verbatim as the reference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    bbt = b @ b.T
    beta = 1.0 + frobenius(a)
    z = lyap_solve(a + beta * np.eye(n), -2.0 * bbt)
    k = solve_linear(z, b).T  # b.T Z^-1, Z symmetric
    bound = TOL.solve * (1.0 + frobenius(q))
    residuals: list[float] = []
    for _ in range(100):
        acl = a - b @ k
        x = lyap_solve(acl.T, q + k.T @ k)
        residual = frobenius(a.T @ x + x @ a - x @ (b @ (b.T @ x)) + q)
        residuals.append(residual)
        if residual <= bound:
            # one polishing step; quadratic convergence puts the final
            # residual far below the stopping bound
            k = b.T @ x
            xp = lyap_solve((a - b @ k).T, q + k.T @ k)
            rp = frobenius(a.T @ xp + xp @ a - xp @ (b @ (b.T @ xp)) + q)
            if rp < residual:
                x = xp
                residuals.append(rp)
            x = 0.5 * (x + x.T)
            return x, residuals
        k = b.T @ x
    raise NoConvergence(f"Riccati iteration stalled: residual {residuals[-1]:.3e}")


def oracle_pairs(seed=2024, count=40):
    """The random controllable pairs of tests/test_oracle.py."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(2, 11))
        p = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, p))
        if is_controllable(a, b):
            pairs.append((a, b))
    return pairs


def outcome(solve, a, b):
    try:
        return solve(a, b, np.eye(a.shape[0]))
    except (Singular, NoConvergence) as exc:
        return type(exc)


def test_care_solve_is_the_newton_kleinman_reference_bit_for_bit():
    # one newton_step for the loop and the polish keeps the reference's bits:
    # X and the residual history, or the same failure
    solved = 0
    for a, b in oracle_pairs():
        got = outcome(lambda *args: care_solve(*args, return_residuals=True), a, b)
        want = outcome(reference_care_solve, a, b)
        if isinstance(want, tuple):
            solved += 1
            assert isinstance(got, tuple), (a, b, got)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]
        else:
            assert got is want
    assert solved == 38


def test_care_rejects_uncontrollable():
    with pytest.raises(NotControllable):
        care_solve(np.eye(2), [[1.0], [1.0]], np.eye(2))


def test_care_accepts_a_weight_whose_skew_sym_eigs_tolerates():
    # sym_eigs alone judges symmetry: q, whose skew is the bound exactly, is
    # accepted, and q + K'K goes to the Lyapunov solve unchecked
    a = np.array([[0.0, 1.0], [-1.0, 1.0]])
    b = np.array([[0.0], [1.0]])
    q = np.array([[4.0, 0.0], [TOL.solve * frobenius(np.diag([4.0, 1.0])), 1.0]])
    assert float(np.max(np.abs(q - q.T))) == TOL.solve * frobenius(q)
    x = care_solve(a, b, q)
    assert is_hurwitz(a - b @ (b.T @ x))


def test_care_rejects_bad_weight():
    a = [[0.0]]
    b = [[1.0]]
    with pytest.raises(Singular, match="q must be positive definite"):
        care_solve(a, b, [[-1.0]])
    with pytest.raises(NotSymmetric):
        care_solve([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.5], [0.0, 1.0]])


def test_tolerance_overrides_roundtrip():
    old = (TOL.solve, TOL.eig)
    try:
        apply_tolerance_overrides("solve=1e-6,eig=1e-11")
        assert (TOL.solve, TOL.eig) == (1e-6, 1e-11)
        apply_tolerance_overrides("1e-7")
        assert (TOL.solve, TOL.eig) == (1e-7, 1e-10)
        for spec in ("nope=3", "sym=1e-9"):
            with pytest.raises(ValueError):
                apply_tolerance_overrides(spec)
    finally:
        TOL.solve, TOL.eig = old
