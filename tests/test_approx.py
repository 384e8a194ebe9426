import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from nblab import (
    DomainError,
    GramSystem,
    SingularSystem,
    best_approximation,
    best_approximation_from_gram,
    gram_system,
    necessary_condition_gap,
    sweep,
)
from nblab.approx import _nullspace_basis
from nblab.cli import _sweep_family, build_parser


def null_space_grid_search(system, radius=3.0, step=1e-4):
    """Brute-force oracle: scan the constraint null space on a uniform grid
    and return the smallest distance seen."""
    G = system.matrix
    g = system.moment_vector
    c = system.constraint_vector
    n = c.size
    basis = []
    for k in range(n - 1):
        v = np.zeros(n)
        v[k] = 1.0
        v[k + 1] = -c[k] / c[k + 1]
        basis.append(v)
    basis = np.array(basis).T  # n x (n-1)
    if n == 2:
        taus = np.arange(-radius, radius + step, step)
        hs = taus[:, None] * basis[:, 0][None, :]
    else:
        coarse = np.arange(-radius, radius + 0.01, 0.01)
        aa, bb = np.meshgrid(coarse, coarse, indexing="ij")
        hs = aa.reshape(-1, 1) * basis[:, 0] + bb.reshape(-1, 1) * basis[:, 1]
    d2 = 1.0 - 2.0 * hs @ g + np.einsum("ij,jk,ik->i", hs, G, hs)
    best = d2.min()
    if n > 2:  # refine around the coarse winner at the requested step
        centre = hs[int(np.argmin(d2))]
        offsets = np.arange(-0.012, 0.012 + step, step)
        aa, bb = np.meshgrid(offsets, offsets, indexing="ij")
        hs = centre + aa.reshape(-1, 1) * basis[:, 0] + bb.reshape(-1, 1) * basis[:, 1]
        d2 = 1.0 - 2.0 * hs @ g + np.einsum("ij,jk,ik->i", hs, G, hs)
        best = min(best, d2.min())
    return math.sqrt(max(best, 0.0))


def test_two_dilations_against_grid_search():
    system = gram_system([1.0, 2.0], 1e-10)
    res = best_approximation_from_gram(system)
    brute = null_space_grid_search(system)
    assert 0.0 < res.distance < 1.0
    assert abs(res.distance - brute) < 1e-6


def test_three_dilations_against_grid_search():
    system = gram_system([1.0, 2.0, 3.0], 1e-10)
    res = best_approximation_from_gram(system)
    brute = null_space_grid_search(system)
    assert abs(res.distance - brute) < 1e-6


_ORACLE_SETS = [[float(k) for k in range(1, n + 1)] for n in (5, 12, 30)] + [
    [1.0, math.sqrt(2.0), (1.0 + math.sqrt(5.0)) / 2.0]
]


@pytest.mark.parametrize("dils", _ORACLE_SETS, ids=lambda d: f"n={len(d)},l2={d[1]:.4f}")
def test_solve_against_mpmath_kkt(dils):
    # the KKT system of the same float (G, g, c), solved at 30 digits.  h*
    # keeps c.h = 0 only to roundoff, and off the plane the least d^2 moves
    # by -2 mu c.h* (mu the KKT multiplier; -1.9e-16 for (1, sqrt 2, phi)),
    # so h* is compared with the optimum of its own plane c.h = c.h*, which
    # it can never beat, and with the optimum of c.h = 0
    system = gram_system(dils, 1e-9)
    res = best_approximation_from_gram(system)
    n = system.size
    with mpmath.workdps(30):
        G = mpmath.matrix(system.matrix.tolist())
        g = [mpmath.mpf(x) for x in system.moment_vector.tolist()]
        c = [mpmath.mpf(x) for x in system.constraint_vector.tolist()]
        h_star = [mpmath.mpf(x) for x in res.h_star.tolist()]

        def d_sq(h):
            form = mpmath.fsum(h[i] * G[i, j] * h[j] for i in range(n) for j in range(n))
            return 1 - 2 * mpmath.fdot(g, h) + form

        kkt = mpmath.zeros(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                kkt[i, j] = G[i, j]
            kkt[i, n] = kkt[n, i] = c[i]

        def gap(plane):
            """d^2(h*) minus the least d^2 on the plane c.h = plane"""
            sol = mpmath.lu_solve(kkt, mpmath.matrix(g + [plane]))
            return float(d_sq(h_star) - d_sq([sol[i] for i in range(n)]))

        own_gap, gap_to_optimum = gap(mpmath.fdot(c, h_star)), gap(0)
    # 1e-28 (1 + |h|_1)^2 covers the 30-digit rounding of d^2 itself
    floor = 1e-28 * (1.0 + float(np.sum(np.abs(res.h_star)))) ** 2
    assert -floor <= own_gap <= res.certified_error
    assert abs(gap_to_optimum) <= res.certified_error


@pytest.mark.parametrize("n", [2, 3, 5, 12, 30, 50])
def test_gram_condition_in_an_svd_basis(n):
    # condition numbers do not depend on the orthonormal basis of c-perp:
    # scipy's null_space takes one from an SVD, not from the reflector
    system = gram_system([float(k) for k in range(1, n + 1)], 1e-10)
    basis = scipy.linalg.null_space(system.constraint_vector[None, :])
    expected = np.linalg.cond(basis.T @ system.matrix @ basis)
    res = best_approximation_from_gram(system)
    assert res.gram_condition == pytest.approx(expected, rel=1e-9)


def test_single_dilation_degenerates_to_zero_function():
    res = best_approximation([1.0])
    assert res.distance == 1.0
    assert np.array_equal(res.h_star, np.zeros(1))
    assert necessary_condition_gap(res) == 1.0


def test_result_invariants():
    res = best_approximation([float(k) for k in range(1, 9)])
    assert res.constraint_residual <= 1e-10
    assert 0.0 <= res.distance <= 1.0
    assert res.kkt_residual < 1e-8
    system = gram_system(list(res.dilations), 1e-7)
    d_sq = 1.0 - 2.0 * float(res.h_star @ system.moment_vector) + float(
        res.h_star @ system.matrix @ res.h_star
    )
    assert abs(res.distance**2 - d_sq) <= res.certified_error + 1e-9


def test_nested_monotonicity():
    d_small = best_approximation([float(k) for k in range(1, 6)]).distance
    d_large = best_approximation([float(k) for k in range(1, 21)]).distance
    assert d_large <= d_small + 1e-10


def test_gap_bounded_by_distance():
    for n in (2, 5, 9):
        res = best_approximation([float(k) for k in range(1, n + 1)])
        assert necessary_condition_gap(res) <= res.distance + 1e-12


def test_validation():
    with pytest.raises(DomainError):
        best_approximation([])
    with pytest.raises(DomainError):
        best_approximation([1.0, 2.0], target_error=0.0)
    with pytest.raises(DomainError, match="target_error must be positive"):
        sweep([1.0, 2.0], [2], target_error=-1.0)
    with pytest.raises(DomainError, match="exceeds the 2 dilations"):
        sweep([1.0, 2.0], [1, 3])
    with pytest.raises(DomainError, match="positive integers"):
        sweep([1.0, 2.0], [0, 2])


def test_reproducible_bit_for_bit():
    a = best_approximation([1.0, 2.0, 3.0, 4.0, 5.0])
    b = best_approximation([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(a.h_star, b.h_star)
    assert a.distance == b.distance


def planted_system(eigenvalue, entry_error=1e-12):
    """A Gram system whose reduced Gram on the constraint plane has the
    eigenvalues 1 and ``eigenvalue``."""
    c = np.array([1.0, 0.5, 0.25])
    basis = _nullspace_basis(c)
    G = basis @ np.diag([1.0, eigenvalue]) @ basis.T + np.outer(c, c)
    return GramSystem(
        dilations=(1.0, 2.0, 4.0),
        matrix=G,
        moment_vector=np.array([0.42, 0.55, 0.4]),
        constraint_vector=c,
        entry_error_bounds=np.full((3, 3), entry_error),
    )


def test_near_degenerate_span_is_solved_and_refused_by_its_bound():
    # a 1e-14 eigenvalue inside the constraint plane: the reduced Gram is
    # still positive definite, so the solve returns finite coefficients, but
    # they are so large that the certified error rules the result out
    # against any target sweep would accept
    res = best_approximation_from_gram(planted_system(1e-14))
    assert res.gram_condition > 1e12
    assert np.all(np.isfinite(res.h_star))
    assert res.certified_error > 1e-6


def test_indefinite_reduced_gram_raises():
    with pytest.raises(SingularSystem, match="not positive definite"):
        best_approximation_from_gram(planted_system(-1e-14))


def test_certified_error_covers_the_roundoff_of_the_form():
    # an eigenvalue 1e-6 inside the constraint plane makes |h|_1 about 3.4e5,
    # so the roundoff of forming h^T G h (4 n u |h|^T |G| |h|, Higham ch. 3)
    # outgrows the 1e-15 entry bounds and the ad hoc 1e-13 (1 + |h|_1)
    system = planted_system(1e-6, entry_error=1e-15)
    G, E = system.matrix, system.entry_error_bounds
    res = best_approximation_from_gram(system)
    abs_h = np.abs(res.h_star)
    assert np.sum(abs_h) > 1e5
    roundoff = float(abs_h @ (E + 4 * 3 * 2.0**-53 * np.abs(G)) @ abs_h)
    assert system.quadratic_form(res.h_star)[1] == roundoff
    assert res.certified_error >= roundoff


def test_singular_system_raises():
    system = GramSystem(
        dilations=(1.0, 2.0),
        matrix=np.zeros((2, 2)),
        moment_vector=np.array([0.1, 0.2]),
        constraint_vector=np.array([1.0, 0.5]),
        entry_error_bounds=np.zeros((2, 2)),
    )
    with pytest.raises(SingularSystem):
        best_approximation_from_gram(system)


def test_sweep_integers():
    results = sweep([float(k) for k in range(1, 11)], [10, 2, 5])
    assert [len(r.dilations) for r in results] == [2, 5, 10]
    for res in results:
        assert res.distance > 0.0
        assert necessary_condition_gap(res) <= res.distance + 1e-12
    for prev, cur in zip(results, results[1:]):
        assert cur.distance <= prev.distance + 1e-10
    # the necessary-condition tracker tightens as the distance falls
    assert necessary_condition_gap(results[-1]) < necessary_condition_gap(results[0])


def test_sweep_single_element_family():
    results = sweep([2.0], [1])
    assert results[0].distance == 1.0


def test_sweep_geometric_family():
    results = sweep([2.0**k for k in range(4)], [2, 4])
    assert results[0].distance >= results[1].distance - 1e-10
    assert all(necessary_condition_gap(r) <= r.distance + 1e-12 for r in results)


def sweep_family(*argv, n_max):
    return _sweep_family(build_parser().parse_args(["sweep", "--n", "1", *argv]), n_max)


def test_family_generation():
    assert sweep_family(n_max=3) == ([1.0, 2.0, 3.0], "integers")
    assert sweep_family("--family", "geometric", "--ratio", "1.5", n_max=3) == (
        [1.0, 1.5, 2.25], "geometric(ratio=1.5)"
    )
    expl = ("--family", "explicit", "--dilations", "1,4,9")
    assert sweep_family(*expl, n_max=2) == ([1.0, 4.0, 9.0], "explicit(n=3)")
    with pytest.raises(DomainError, match="holds only 3 dilations"):
        sweep_family(*expl, n_max=5)
    with pytest.raises(DomainError, match="ratio > 1"):
        sweep_family("--family", "geometric", "--ratio", "0.5", n_max=2)
    with pytest.raises(DomainError, match="strictly ascending"):
        sweep_family("--family", "explicit", "--dilations", "1,4,4", n_max=2)
