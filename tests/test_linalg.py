"""Decomposition and projection tests against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wogd.linalg import (
    clip_singular_values,
    frobenius_norms,
    project_l2_ball,
    spectral_norm,
    svd,
)


def jacobi_eigenvalues(sym: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Independent two-sided Jacobi eigen-solver for symmetric matrices.

    Used as the oracle for singular values: sigma_i(m) = sqrt(eig_i(m^T m)).
    """
    a = sym.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= tol * math.sqrt(abs(a[p, p] * a[q, q]) + 1e-300):
                    continue
                off += abs(a[p, q])
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off == 0.0:
            break
    return np.sort(np.abs(np.diag(a)))[::-1]


def power_iteration_norm(m: np.ndarray, iters: int = 5000, tol: float = 1e-14) -> float:
    """Independent spectral-norm oracle via power iteration on m^T m."""
    rng = np.random.default_rng(1234)
    v = rng.normal(size=m.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = m.T @ (m @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= tol * norm:
            break
        prev = norm
    return math.sqrt(norm)


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.sigma, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(res.u), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(res.v), np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        res = svd(np.zeros((2, 3)))
        np.testing.assert_allclose(res.sigma, [0.0, 0.0])
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(2), atol=1e-12)

    def test_matches_jacobi_eigen_oracle(self):
        # 5x5 plus the hidden-layer shapes the shipped workloads decompose.
        rng = np.random.default_rng(7)
        for shape in ((5, 5), (10, 10), (10, 4), (4, 10), (6, 6), (6, 4)):
            for _ in range(20):
                m = rng.uniform(-1.0, 1.0, shape)
                gram = m.T @ m if shape[0] >= shape[1] else m @ m.T
                expected = np.sqrt(jacobi_eigenvalues(gram))
                np.testing.assert_allclose(svd(m).sigma, expected, atol=1e-9)

    def test_reconstruction_random_shapes(self):
        # Module invariant: <= 1e-10 relative Frobenius error on 1000 random
        # matrices with dimensions up to 33.
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            rows = int(rng.integers(1, 34))
            cols = int(rng.integers(1, 34))
            m = rng.normal(0.0, 1.0, (rows, cols))
            res = svd(m)
            recon = (res.u * res.sigma) @ res.v.T
            worst = max(worst, np.linalg.norm(recon - m) / max(np.linalg.norm(m), 1e-300))
            assert np.all(np.diff(res.sigma) <= 1e-15)
            assert np.all(res.sigma >= 0.0)
        assert worst <= 1e-10

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(3)
        for shape in ((4, 7), (7, 4), (6, 6), (1, 5)):
            m = rng.normal(size=shape)
            res = svd(m)
            k = min(shape)
            np.testing.assert_allclose(res.u.T @ res.u, np.eye(k), atol=1e-12)
            np.testing.assert_allclose(res.v.T @ res.v, np.eye(k), atol=1e-12)

    def test_rank_deficient(self):
        col = np.array([[1.0], [2.0], [2.0]])
        m = col @ np.array([[1.0, -1.0, 0.5]])
        res = svd(m)
        assert res.sigma[0] > 0
        np.testing.assert_allclose(res.sigma[1:], 0.0, atol=1e-12)
        recon = (res.u * res.sigma) @ res.v.T
        np.testing.assert_allclose(recon, m, atol=1e-12)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            svd(np.zeros((1, 5000)))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert spectral_norm(np.diag([0.5, 0.95])) == pytest.approx(0.95, abs=1e-14)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.normal(size=(4, 4))
            assert spectral_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-8)


def grid_nearest_distance(m: np.ndarray, lam: float) -> float:
    """Brute-force nearest-point search over norm-constrained 2x2 matrices.

    Parametrizes the feasible set as R(phi) diag(s1, s2) R(psi) with
    s1 in [0, lam], s2 in [-lam, lam] (the sign absorbs reflections), and
    refines the grid around the best point three times.
    """

    def batch_distance(phis, psis, s1s, s2s):
        best = (np.inf, None)
        for phi in phis:
            cp, sp = math.cos(phi), math.sin(phi)
            left = np.array([[cp, -sp], [sp, cp]])
            for psi in psis:
                cq, sq = math.cos(psi), math.sin(psi)
                right = np.array([[cq, -sq], [sq, cq]])
                for s1 in s1s:
                    for s2 in s2s:
                        x = left @ np.diag([s1, s2]) @ right
                        dist = np.linalg.norm(x - m)
                        if dist < best[0]:
                            best = (dist, (phi, psi, s1, s2))
        return best

    phis = np.linspace(0.0, math.pi, 16, endpoint=False)
    psis = np.linspace(0.0, math.pi, 16, endpoint=False)
    s1s = np.linspace(0.0, lam, 9)
    s2s = np.linspace(-lam, lam, 17)
    dist, (phi, psi, s1, s2) = batch_distance(phis, psis, s1s, s2s)
    dphi = math.pi / 16
    ds = lam / 4
    for _ in range(3):
        phis = np.linspace(phi - dphi, phi + dphi, 9)
        psis = np.linspace(psi - dphi, psi + dphi, 9)
        s1s = np.clip(np.linspace(s1 - ds, s1 + ds, 9), 0.0, lam)
        s2s = np.clip(np.linspace(s2 - ds, s2 + ds, 9), -lam, lam)
        dist, (phi, psi, s1, s2) = batch_distance(phis, psis, s1s, s2s)
        dphi /= 6
        ds /= 6
    return dist


class TestClipSingularValues:
    def test_diagonal_clipping(self):
        out = clip_singular_values(np.diag([2.0, 0.5]), 0.95)
        np.testing.assert_allclose(out, np.diag([0.95, 0.5]), atol=1e-12)

    def test_interior_point_unchanged(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.normal(size=(3, 4))
            m *= 0.8 / spectral_norm(m)
            np.testing.assert_allclose(clip_singular_values(m, 1.0), m, atol=1e-10)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = rng.normal(0.0, 1.0, (2, 2))
            clipped = clip_singular_values(m, 0.9)
            d_clip = np.linalg.norm(clipped - m)
            d_grid = grid_nearest_distance(m, 0.9)
            assert d_grid >= d_clip - 1e-12  # grid point cannot beat the argmin
            assert abs(d_grid - d_clip) <= 1e-3

    def test_idempotent_and_nearest_point(self):
        # Acceptance-grade properties on 1000 random cases.
        rng = np.random.default_rng(23)
        lam = 0.9
        for _ in range(1000):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = rng.normal(0.0, 1.0, (rows, cols))
            clipped = clip_singular_values(m, lam)
            assert spectral_norm(clipped) <= lam + 1e-9
            again = clip_singular_values(clipped, lam)
            np.testing.assert_allclose(again, clipped, atol=1e-10)
        # Nearest-point: no random feasible point may be closer.
        for _ in range(20):
            m = rng.normal(0.0, 1.0, (3, 3))
            clipped = clip_singular_values(m, lam)
            d_clip = np.linalg.norm(m - clipped)
            for _ in range(100):
                x = rng.normal(0.0, 1.0, (3, 3))
                norm = spectral_norm(x)
                if norm > lam:
                    x *= (lam * rng.uniform(0.2, 1.0)) / norm
                assert np.linalg.norm(m - x) >= d_clip - 1e-9

    def test_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            clip_singular_values(np.eye(2), 0.0)


def svd_clip_reference(m: np.ndarray, lam: float) -> np.ndarray:
    """The spectral clip with an SVD on every call, no Frobenius-norm exit."""
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    if sigma[0] <= lam:
        return m.copy()
    return (u * np.minimum(sigma, lam)) @ vt


@st.composite
def clip_cases(draw, shape=None):
    """A matrix, dense or rank one (sigma_max and ||A||_F then agree up to
    rounding), and a bound lam: anywhere, or exactly at the computed
    Frobenius or spectral norm, where a no-SVD exit would first disagree
    with the SVD."""
    rows, cols = shape or (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    values = st.floats(-4.0, 4.0, allow_subnormal=False)
    if draw(st.booleans()):
        m = np.outer(draw(arrays(np.float64, rows, elements=values)),
                     draw(arrays(np.float64, cols, elements=values)))
    else:
        m = draw(arrays(np.float64, (rows, cols), elements=values))
    at = draw(st.sampled_from(["anywhere", "frobenius", "sigma"]))
    if at == "frobenius":
        lam = float(np.linalg.norm(m))
    elif at == "sigma":
        lam = float(np.linalg.svd(m, full_matrices=False)[1][0])
    else:
        lam = draw(st.floats(0.01, 20.0))
    return m, lam if lam > 0 else 1.0


PROPERTY = settings(max_examples=300)


class TestClipProperties:
    @PROPERTY
    @given(case=clip_cases())
    def test_bitwise_equal_to_svd_reference(self, case):
        m, lam = case
        got = clip_singular_values(m, lam)
        assert got.shape == m.shape and got is not m
        assert np.array_equal(got, svd_clip_reference(m, lam))

    @PROPERTY
    @given(case=clip_cases())
    def test_idempotent(self, case):
        m, lam = case
        clipped = clip_singular_values(m, lam)
        again = clip_singular_values(clipped, lam)
        # a clip whose computed spectral norm rounds above lam moves again,
        # by rounding; one within the bound comes back bit for bit
        np.testing.assert_allclose(again, clipped, rtol=0, atol=1e-12 * lam)
        if np.linalg.svd(clipped, full_matrices=False)[1][0] <= lam:
            assert np.array_equal(again, clipped)

    @settings(max_examples=6)
    @given(case=clip_cases(shape=(2, 2)))
    def test_never_farther_than_grid_oracle(self, case):
        m, lam = case
        d_clip = np.linalg.norm(clip_singular_values(m, lam) - m)
        assert d_clip <= grid_nearest_distance(m, lam) + 1e-12


class TestStackedClip:
    """A (B, rows, cols) stack is clipped bit for bit as each member alone."""

    @PROPERTY
    @given(
        data=st.data(),
        batch=st.integers(1, 6),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        poison=st.sampled_from([None, np.nan, np.inf]),
    )
    def test_each_member_equals_svd_reference(self, data, batch, shape, poison):
        cases = [data.draw(clip_cases(shape=shape)) for _ in range(batch)]
        # one bound for the stack, at or around some member's exits
        lam = cases[data.draw(st.integers(0, batch - 1))][1]
        stack = np.stack([m for m, _ in cases])
        got = clip_singular_values(stack, lam)
        assert got.shape == stack.shape
        for b, (m, _) in enumerate(cases):
            assert np.array_equal(got[b], svd_clip_reference(m, lam)), b
        if poison is not None:
            stack[data.draw(st.integers(0, batch - 1))].flat[0] = poison
            with pytest.raises(ValueError, match="non-finite"):
                clip_singular_values(stack, lam)


    @settings(max_examples=100)
    @given(
        data=st.data(),
        batch=st.integers(2, 70),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_stack_decomposes_only_members_past_the_exit(self, data, batch, shape, seed):
        # members within the Frobenius exit, past it with sigma_max <= lam,
        # past the bound, and at the edges clip_cases draws, in one stack
        rng = np.random.default_rng(seed)
        lam = data.draw(st.floats(0.1, 5.0))
        stack = rng.normal(size=(batch,) + shape)
        for b, kind in enumerate(rng.integers(0, 4, batch)):
            if kind == 3:
                m, at = data.draw(clip_cases(shape=shape))
                stack[b] = m * (lam / at)
                continue
            norm = np.linalg.norm(stack[b]) if kind == 0 else spectral_norm(stack[b])
            stack[b] *= (0.5, 0.99, 2.0)[kind] * lam / norm
        decomposed = []
        real = np.linalg.svd

        def counting(a, *args, **kwargs):
            decomposed.append(len(a))
            return real(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", counting)
            got = clip_singular_values(stack, lam)
        past = frobenius_norms(stack) > lam * (1.0 - 1e-12)
        assert decomposed == ([int(past.sum())] if past.any() else [])
        for b, m in enumerate(stack):
            want = clip_singular_values(m, lam)
            assert np.array_equal(got[b], want), b
            assert np.array_equal(want, svd_clip_reference(m, lam)), b


class TestFrobeniusNorms:
    """One dot product per member: a stack's norms are bitwise those of its
    members alone and np.linalg.norm, however the members are grouped."""

    @settings(max_examples=150)
    @given(
        count=st.integers(1, 70),
        shape=st.tuples(st.integers(1, 10), st.integers(1, 10)),
        seed=st.integers(0, 2**32 - 1),
    )
    @np.errstate(over="ignore")
    def test_stack_equals_members_alone(self, count, shape, seed):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-300, 301, count)[:, None, None]
        stack = rng.normal(size=(count,) + shape) * scales
        got = frobenius_norms(stack)
        for b, m in enumerate(stack):
            assert repr(got[b]) == repr(frobenius_norms(m[None])[0]), b
            assert repr(got[b]) == repr(np.linalg.norm(m)), b


class TestProjectL2Ball:
    def test_interior_unchanged(self):
        v = np.array([0.3, 0.4])
        np.testing.assert_allclose(project_l2_ball(v, 1.0), v)

    def test_three_four_five(self):
        np.testing.assert_allclose(project_l2_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_nearest_point_vs_grid(self):
        # 2-d polar grid oracle for the nearest feasible point.
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = rng.normal(0.0, 2.0, 2)
            radius = rng.uniform(0.5, 2.0)
            proj = project_l2_ball(v, radius)
            assert np.linalg.norm(proj) <= radius + 1e-12
            angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
            radii = np.linspace(0.0, radius, 200)
            pts = radii[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
            d_grid = np.min(np.linalg.norm(pts - v, axis=-1))
            assert d_grid >= np.linalg.norm(proj - v) - 1e-9
            assert abs(d_grid - np.linalg.norm(proj - v)) <= 2e-2

    def test_ball_cases(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            v = rng.normal(0.0, 1.5, int(rng.integers(1, 12)))
            radius = float(rng.uniform(0.2, 2.0))
            proj = project_l2_ball(v, radius)
            assert np.linalg.norm(proj) <= radius + 1e-12
            again = project_l2_ball(proj, radius)
            np.testing.assert_allclose(again, proj, atol=1e-12)
