import itertools

import numpy as np
import pytest

from ltisec import (
    DetectorConfig,
    DetectorSession,
    DimensionMismatch,
    LtiSystem,
    LtisecError,
    NonFinite,
    RankDeficient,
    SideInformation,
    SubspaceBasis,
    Tol,
    feasible,
    intersect,
    null_space,
    numerical_rank,
    orth_columns,
    output_nulling_reachable,
    projector,
    solve_min_norm,
    weakly_unobservable,
)
from ltisec.numlin import above_cut, rank_cut


def test_rank_identity():
    assert numerical_rank(np.eye(3)) == 3


def test_rank_zero_matrix():
    assert numerical_rank(np.zeros((2, 2))) == 0


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_rank_of_an_empty_matrix_is_zero(shape):
    assert numerical_rank(np.zeros(shape)) == 0


def test_rank_aircraft_observability_stack(aircraft_sys):
    a, c = aircraft_sys.a, aircraft_sys.c
    stack = np.vstack([c, c @ a, c @ a @ a, c @ a @ a @ a])
    assert numerical_rank(stack) == 4
    # brute singular-value confirmation
    sv = np.linalg.svd(stack, compute_uv=False)
    assert sv[-1] > 1e-10 * sv[0]


def test_rank_rejects_nonfinite():
    with pytest.raises(NonFinite):
        numerical_rank(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_null_space_coordinate_row():
    ns = null_space(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert ns.dim == 3
    assert np.allclose(ns.basis[0, :], 0.0)
    assert ns.basis.T @ ns.basis == pytest.approx(np.eye(3))


def test_null_space_full_rank_is_trivial():
    assert null_space(np.eye(3)).dim == 0


def test_null_space_aircraft_feedthrough(aircraft_sys):
    ns = null_space(aircraft_sys.d)
    assert ns.dim == 2
    assert np.linalg.norm(aircraft_sys.d @ ns.basis) <= 1e-12


def test_null_space_zero_rows_gives_full_space():
    assert null_space(np.zeros((1, 5))).dim == 5


def test_intersect_coordinate_planes():
    e = np.eye(3)
    x = SubspaceBasis(3, e[:, :2])
    y = SubspaceBasis(3, e[:, 1:])
    meet = intersect(x, y)
    assert meet.dim == 1
    assert abs(abs(meet.basis[1, 0]) - 1.0) < 1e-12


def test_intersect_with_zero_subspace():
    x = SubspaceBasis(3, np.eye(3)[:, :2])
    assert intersect(x, SubspaceBasis.zero(3)).dim == 0


def test_intersect_with_full_space_returns_other():
    x = SubspaceBasis(4, np.eye(4)[:, :2])
    meet = intersect(SubspaceBasis.full(4), x)
    assert meet.dim == 2
    assert np.linalg.norm(meet.basis - x.project(meet.basis)) <= 1e-12


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(SubspaceBasis.full(3), SubspaceBasis.full(4))


def test_intersect_two_full_spaces():
    meet = intersect(SubspaceBasis.full(3), SubspaceBasis.full(3))
    assert meet.dim == 3


def test_intersect_symmetry(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x = orth_columns(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
        y = orth_columns(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
        ab = intersect(x, y)
        ba = intersect(y, x)
        assert ab.dim == ba.dim
        if ab.dim:
            assert np.linalg.norm(ab.basis - ba.project(ab.basis)) <= 1e-9
            assert np.linalg.norm(ba.basis - ab.project(ba.basis)) <= 1e-9


def test_projector_single_column():
    assert np.allclose(projector(np.array([[1.0], [0.0]])), [[1.0, 0.0], [0.0, 0.0]])


def test_projector_identity():
    assert projector(np.eye(3)) == pytest.approx(np.eye(3))


def test_projector_rank_deficient():
    with pytest.raises(RankDeficient):
        projector(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_projector_idempotent_symmetric(rng):
    for _ in range(100):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(1, rows + 1))
        k = rng.standard_normal((rows, cols))
        if numerical_rank(k) < cols:
            continue
        pi = projector(k)
        assert np.linalg.norm(pi @ pi - pi, "fro") <= 1e-9
        assert np.linalg.norm(pi - pi.T, "fro") <= 1e-9


def test_null_space_residual(rng):
    for _ in range(100):
        m = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        ns = null_space(m)
        if ns.dim:
            assert np.linalg.norm(m @ ns.basis, "fro") <= 1e-9 * max(1.0, np.linalg.norm(m, "fro"))


def test_rank_nullity_with_separated_spectrum(rng):
    for _ in range(100):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(2, 8))
        r = int(rng.integers(0, min(rows, cols) + 1))
        u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
        sv = np.zeros((rows, cols))
        for i in range(r):
            sv[i, i] = 10.0 ** (-i % 4)
        m = u @ sv @ v.T
        assert numerical_rank(m) == r
        assert null_space(m).dim == cols - r


def test_solve_min_norm_identity():
    v = np.array([1.0, -2.0, 3.0])
    x, res = solve_min_norm(np.eye(3), v)
    assert x == pytest.approx(v)
    assert res <= 1e-12


def test_solve_min_norm_zero_matrix():
    rhs = np.array([1.0, 1.0])
    x, res = solve_min_norm(np.zeros((2, 2)), rhs)
    assert np.allclose(x, 0.0)
    assert res == pytest.approx(np.linalg.norm(rhs))


def test_solve_min_norm_zero_columns():
    x, res = solve_min_norm(np.zeros((3, 0)), np.ones(3))
    assert x.shape == (0,)
    assert res == pytest.approx(np.sqrt(3.0))


def test_solve_min_norm_picks_smallest_solution(rng):
    # wide system: the returned solution must be the minimum-norm one
    m = rng.standard_normal((2, 5))
    rhs = rng.standard_normal(2)
    x, res = solve_min_norm(m, rhs)
    assert res <= 1e-10
    lstsq_x, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    assert np.linalg.norm(x) <= np.linalg.norm(lstsq_x) + 1e-12


def test_solve_min_norm_shape_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^right-hand side has length 2, expected 3$"):
        solve_min_norm(np.eye(3), np.ones(2))


def test_tol_validation():
    with pytest.raises(LtisecError, match="^rank_rel must lie strictly between 0 and 1"):
        Tol(rank_rel=0.0)
    with pytest.raises(LtisecError, match="^residual_rel must lie strictly between 0 and 1"):
        Tol(residual_rel=1.5)


@pytest.mark.parametrize("field, value, refusal, message", [
    ("rank_rel", "x", DimensionMismatch, "rank_rel is not a numeric array"),
    ("residual_rel", [1e-8], DimensionMismatch, r"residual_rel must be a single number, got shape \(1,\)$"),
    ("residual_rel", np.nan, NonFinite, "residual_rel contains NaN or infinite entries$"),
    ("rank_rel", 2.0, LtisecError, "rank_rel must lie strictly between 0 and 1, got 2.0$"),
    ("rank_rel", "1e-9", DimensionMismatch, "rank_rel is not a numeric array: it holds text$"),
    ("residual_rel", np.complex128(1e-8), DimensionMismatch,
     "residual_rel is not a numeric array: it holds complex numbers$"),
], ids=["string", "list", "nan", "two", "digits", "complex"])
def test_tol_refuses_what_is_not_a_number_in_the_unit_interval(field, value, refusal, message):
    # a string used to escape as TypeError, an out-of-range value as ValueError
    with pytest.raises(refusal, match=f"^{message}"):
        Tol(**{field: value})


def test_tol_keeps_its_values_as_floats():
    tol = Tol(rank_rel=np.float32(0.5), residual_rel=np.array(1e-6))
    assert type(tol.rank_rel) is float and type(tol.residual_rel) is float
    assert tol == Tol(rank_rel=0.5, residual_rel=1e-6)
    assert hash(tol) == hash(Tol(rank_rel=0.5, residual_rel=1e-6))


def test_subspace_basis_rejects_skewed_columns():
    with pytest.raises(LtisecError, match="^basis columns are not orthonormal$"):
        SubspaceBasis(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_subspace_basis_rejects_a_basis_of_other_rows():
    with pytest.raises(DimensionMismatch, match=r"^basis shape \(4, 0\) does not match ambient dim 3$"):
        SubspaceBasis(3, np.zeros((4, 0)))


@pytest.mark.parametrize("method", ["project", "residual_outside", "contains"])
@pytest.mark.parametrize("v, refusal, message", [
    (np.ones(3), DimensionMismatch, r"^v has shape \(3,\), expected 4 rows$"),
    (np.ones((3, 2)), DimensionMismatch, r"^v has shape \(3, 2\), expected 4 rows$"),
    (2.0, DimensionMismatch, r"^v has shape \(\), expected 4 rows$"),
    ("abc", DimensionMismatch, "^v is not a numeric array: it holds text$"),
    ([0.0, np.nan, 0.0, 0.0], NonFinite, "^v contains NaN or infinite entries$"),
], ids=["short", "short_rows", "scalar", "text", "nan"])
def test_subspace_basis_refuses_an_operand_it_cannot_take(aircraft_sys, method, v, refusal, message):
    # numpy's untyped ValueError used to escape: a core-dimension mismatch
    # in matmul, or a string it could not convert
    basis = weakly_unobservable(aircraft_sys)
    with pytest.raises(refusal, match=message):
        getattr(basis, method)(v)


def test_subspace_basis_takes_vectors_and_matrices_of_ambient_rows(aircraft_sys):
    basis = weakly_unobservable(aircraft_sys)
    cols = basis.project(np.eye(4))
    assert np.allclose(cols, basis.basis @ basis.basis.T)
    assert np.allclose(basis.project(np.eye(4)[:, 1]), cols[:, 1])
    assert basis.contains(basis.basis) and basis.contains(basis.basis[:, 0].tolist())
    assert SubspaceBasis.zero(4).residual_outside([3.0, 4.0, 0.0, 0.0]) == 5.0


def test_every_subspace_basis_holds_a_read_only_copy(aircraft_sys):
    q = np.eye(3)[:, :2].copy()
    basis = SubspaceBasis(3, q)
    q[:] = 0.0
    assert np.array_equal(basis.basis, np.eye(3)[:, :2]) and basis.contains(np.eye(3)[0])
    for kept in (basis, null_space(np.ones((1, 3))), orth_columns(np.ones((3, 1))),
                 output_nulling_reachable(aircraft_sys, 2)):
        with pytest.raises(ValueError):
            kept.basis[0, 0] = 1.0


# -- the single decision rule: feasible and rank_cut ------------------------


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 3.0, 1e4])
@pytest.mark.parametrize("tol", [Tol(), Tol(residual_rel=5e-3)])
def test_feasible_boundary(scale, tol):
    threshold = tol.residual_rel * max(1.0, scale)
    assert feasible(threshold, scale, tol)
    assert not feasible(np.nextafter(threshold, np.inf), scale, tol)


@pytest.mark.parametrize("tol", [Tol(), Tol(residual_rel=5e-3)])
def test_feasible_array_matches_scalar(tol):
    scales = np.array([0.0, 0.5, 1.0, 3.0, 1e4])
    at = tol.residual_rel * np.fmax(1.0, scales)
    above = np.nextafter(at, np.inf)
    residuals = np.concatenate([at, above])
    norms = np.concatenate([scales, scales])
    got = feasible(residuals, norms, tol)
    assert got.dtype == bool
    assert got.tolist() == [True] * 5 + [False] * 5
    assert got.tolist() == [feasible(float(r), float(m), tol) for r, m in zip(residuals, norms)]


@pytest.mark.parametrize("scale", [np.inf, np.nan])
def test_feasible_rejects_a_non_finite_scale(scale):
    # every residual would pass against an infinite scale
    with pytest.raises(NonFinite):
        feasible(1e300, scale)
    with pytest.raises(NonFinite):
        feasible(np.array([0.0, 1e300]), np.array([1.0, scale]))


def test_feasible_scalar_is_bool():
    assert type(feasible(0.0, 1.0)) is bool
    assert type(feasible(1.0, 1.0)) is bool
    assert type(feasible(np.float64(0.0), np.float64(1.0))) is bool


@pytest.mark.parametrize("head", [0.5, 1.0, 1e3])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 1.0 + 1e-9, 2.0])
def test_contains_is_feasible_of_residual_outside(head, ratio):
    tol = Tol()
    line = SubspaceBasis(3, np.array([[1.0], [0.0], [0.0]]))
    v = np.array([head, ratio * tol.residual_rel * max(1.0, head), 0.0])
    want = feasible(line.residual_outside(v), float(np.linalg.norm(v)), tol)
    assert line.contains(v, tol) == want
    if ratio in (0.5, 2.0):
        assert want == (ratio < 1.0)


def test_contains_decides_each_column():
    # one residual of the whole matrix against its one norm let a large
    # column carry a column wholly outside the subspace
    line = SubspaceBasis(2, np.array([[1.0], [0.0]]))
    assert not line.contains([0.0, 1e-7])
    assert not line.contains(np.array([[100.0, 0.0], [0.0, 1e-7]]))
    assert line.contains(np.array([[100.0, -3.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "sv,rank_rel,floor,want",
    [
        (np.zeros(3), 1e-10, 0.0, 0),
        (np.zeros(0), 1e-10, 0.0, 0),
        (np.zeros(3), 1e-10, 1.0, 0),
        # a singular value exactly at the cut 0.25 * 2.0 is not counted
        (np.array([2.0, 0.5]), 0.25, 0.0, 1),
        (np.array([2.0, np.nextafter(0.5, np.inf)]), 0.25, 0.0, 2),
        # the floor anchors the cut when the spectrum is rounding noise
        (np.array([1e-12, 1e-13]), 1e-10, 0.0, 2),
        (np.array([1e-12, 1e-13]), 1e-10, 1.0, 0),
        # a floor below the largest singular value changes nothing; one above
        # it raises the cut
        (np.array([2.0, 0.5]), 0.25, 1e-3, 1),
        (np.array([2.0, 0.5]), 0.25, 8.0, 0),
    ],
)
def test_rank_cut(sv, rank_rel, floor, want):
    assert rank_cut(sv, Tol(rank_rel=rank_rel), floor) == want


def _argsort_cut(values, tol, floor):
    """The mode search's former rule, kept as the reference: rank the values
    by a double argsort and keep those placed before the rank cut of the
    descending spectrum."""
    sv = -np.sort(-values)
    smax = max(float(sv[0]), floor) if sv.size else floor
    return np.argsort(np.argsort(-values)) < int(np.sum(sv > tol.rank_rel * smax))


def test_above_cut_is_the_rank_cut():
    rng = np.random.default_rng(7)
    # ties, zeros and values exactly at the cut 0.25 * 2.0 among random ones
    pool = np.array([0.0, 0.0, 1e-12, 1e-11, 0.5, 0.5, 2.0, 2.0])
    spectra = [np.zeros(0), np.zeros(4)]
    for size in rng.integers(1, 9, 40):
        spectra.append(np.where(rng.random(size) < 0.6, rng.choice(pool, size), rng.random(size) * 4.0))
    for values, tol in itertools.product(spectra, (Tol(), Tol(rank_rel=0.25))):
        for floor in (0.0, 1.0, 8.0):
            mask = above_cut(values, tol, floor)
            assert mask.dtype == bool and mask.shape == values.shape
            assert rank_cut(-np.sort(-values), tol, floor) == mask.sum()
            assert mask.tolist() == _argsort_cut(values, tol, floor).tolist()


@pytest.mark.parametrize(
    "k",
    [np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 1e-12]])],
    ids=["zero-column", "below-rank-cut"],
)
def test_projector_rank_deficient_inputs(k):
    with pytest.raises(RankDeficient):
        projector(k)


def test_detector_session_first_stack_rank_deficient():
    # (A, C) is observable, but a huge Omega row pushes [Omega; O] below the
    # rank cut, so the first epoch's test range is ill-posed
    sys = LtiSystem(a=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.array([[1.0], [0.0]]),
                    c=np.array([[1.0, 0.0]]), d=np.zeros((1, 1)))
    cfg = DetectorConfig(window_len_l=3, omega=SideInformation(np.array([[1e12, 0.0]])))
    with pytest.raises(RankDeficient):
        DetectorSession(sys, cfg, np.zeros(1))
