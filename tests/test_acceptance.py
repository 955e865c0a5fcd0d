"""Acceptance checks: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-8 share the session-scoped default-scenario runs from conftest, so
the whole file costs five closed-loop simulations plus the cheap numeric
checks.
"""

import numpy as np

from contain import cli
from contain.graph import build_topology, check_assumption1, partition_laplacian
from contain.matlib import care_solve, frobenius, is_hurwitz
from contain.sim import rk4_step
from contain.synthesis import compute_alpha, compute_Gamma, solve_P
from conftest import random_a1_topology, random_controllable_pair

A2 = np.array([[0.0, 1.0], [-1.0, 1.0]])
B2 = np.array([[0.0], [1.0]])


def check(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_gamma_crosscheck():
    k = np.array([[-1.6203, -4.7567]])
    gamma = compute_Gamma(k)
    reference = np.array([[2.6255, 7.7075], [7.7075, 22.6266]])
    err = float(np.max(np.abs(gamma - reference)))
    check(1, err < 1e-3, f"max entry error {err:.2e} vs 1e-3")


def test_criterion_02_lmi_certificate():
    p = solve_P(A2, B2)
    alpha, lmi_max, _ = compute_alpha(A2, B2, p)
    check(2, lmi_max < -1e-6 and alpha > 0.0,
          f"lambda_max(LMI) = {lmi_max:.6f}, alpha = {alpha:.6f}")


def test_criterion_03_riccati_random_pairs():
    rng = np.random.default_rng(101)
    worst = 0.0
    all_hurwitz = True
    for _ in range(50):
        a, b = random_controllable_pair(rng)
        n = a.shape[0]
        x = care_solve(a, b, np.eye(n))
        res = frobenius(a.T @ x + x @ a - x @ b @ b.T @ x + np.eye(n))
        worst = max(worst, res)
        all_hurwitz = all_hurwitz and is_hurwitz(a - b @ (b.T @ x))
    check(3, worst < 1e-9 and all_hurwitz,
          f"worst residual {worst:.2e}, closed loops Hurwitz: {all_hurwitz}")


def test_criterion_04_laplacian_partition_properties():
    rng = np.random.default_rng(211)
    lam_min = np.inf
    w_min = np.inf
    row_err = 0.0
    for _ in range(200):
        topo = build_topology(random_a1_topology(rng))
        assert check_assumption1(topo).passed
        part = partition_laplacian(topo)
        lam_min = min(lam_min, part.lambda_min_L1)
        w_min = min(w_min, float(part.W.min()))
        row_err = max(row_err, float(np.max(np.abs(part.W.sum(axis=1) - 1.0))))
    ok = lam_min > 0.0 and w_min >= -1e-12 and row_err <= 1e-10
    check(4, ok, f"min lambda_min(L1) {lam_min:.3e}, min W entry {w_min:.1e}, "
                 f"worst row-sum error {row_err:.1e}")


def test_criterion_05_continuous_certification(cont_run, cont_small_kappa_run):
    tail = cont_run.metrics.tail_sup_xi_sq
    radius = cont_run.bounds.d1_radius_sq
    env = cont_run.metrics.envelope_violations
    tail_small = cont_small_kappa_run.metrics.tail_sup_xi_sq
    ok = (tail <= radius) and env == 0 and tail_small < tail
    check(5, ok, f"tail {tail:.3e} <= D1 {radius:.3e}, envelope violations {env}, "
                 f"kappa=0.05 tail {tail_small:.3e} < kappa=0.1 tail")


def test_criterion_06_adaptive_certification(adaptive_run):
    traj = adaptive_run.traj
    m = adaptive_run.metrics
    b = adaptive_run.bounds
    finite = bool(np.isfinite(traj.adaptive_gains).all())
    ok = (finite and m.d_sup < 1e3
          and b.varrho is not None and b.varrho < adaptive_run.gains.alpha
          and m.tail_sup_xi_sq <= b.d2_radius_sq)
    check(6, ok, f"d_sup {m.d_sup:.3f}, varrho {b.varrho:.3f} < alpha "
                 f"{adaptive_run.gains.alpha:.3f}, tail {m.tail_sup_xi_sq:.3e} "
                 f"<= D2 {b.d2_radius_sq:.3e}")


def test_criterion_07_chattering_contrast(cont_run, disc_run):
    tail_ratio = disc_run.metrics.tail_sup_xi_sq / cont_run.metrics.tail_sup_xi_sq
    chat_ratio = disc_run.metrics.chattering_index / cont_run.metrics.chattering_index
    ok = tail_ratio <= 1.1 and chat_ratio >= 5.0
    check(7, ok, f"tail ratio {tail_ratio:.3f} <= 1.1, "
                 f"chattering ratio {chat_ratio:.1f} >= 5")


def test_criterion_08_observer_boundedness(cont_run, observer_run):
    traj = observer_run.traj
    x_all = np.concatenate([traj.follower_states, traj.leader_states], axis=1)
    err = np.sqrt(np.sum((traj.observer_states - x_all) ** 2, axis=(1, 2)))
    half = len(err) // 2
    slope = float(np.polyfit(traj.times[:half],
                             np.log(np.maximum(err[:half], 1e-300)), 1)[0])
    tail = observer_run.metrics.tail_sup_xi_sq
    bound = 2.0 * cont_run.metrics.tail_sup_xi_sq
    ok = slope < 0.0 and np.isfinite(tail) and tail <= bound
    check(8, ok, f"estimation error slope {slope:.3f} < 0, "
                 f"tail {tail:.3e} <= 2x continuous {bound:.3e}")


def test_criterion_09_integrator_order():
    def global_err(h):
        y = np.array([1.0])
        steps = round(1.0 / h)
        for k in range(steps):
            y = rk4_step(lambda t, y: -y, k * h, y, h, -y)
        return abs(float(y[0]) - np.exp(-1.0))

    ratio = global_err(0.1) / global_err(0.05)
    check(9, 12.0 <= ratio <= 20.0, f"error ratio {ratio:.2f} in [12, 20]")


def test_criterion_10_deterministic_csv(tmp_path):
    scn = tmp_path / "default.scn"
    scn.write_text(cli.default_scenario(), encoding="utf-8")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = cli.cmd_simulate(str(scn), str(out_a), t_end=2.0)
    rc_b = cli.cmd_simulate(str(scn), str(out_b), t_end=2.0)
    bytes_a = (out_a / "trajectory.csv").read_bytes()
    bytes_b = (out_b / "trajectory.csv").read_bytes()
    ok = bytes_a == bytes_b and rc_a == rc_b
    check(10, ok, f"{len(bytes_a)} CSV bytes identical across invocations")
