import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matcoh.coherence
import matcoh.linalg
from matcoh.coherence import (
    _GRAM_MAX_ANGLE,
    _gamma,
    _gram_core,
    _prefix_factors,
    basis_coherence,
    estimate_coherence,
    nested_factors,
    sample_size_bound,
    update_projector,
)
from matcoh.linalg import (ThinSVD, orthonormality_defect, projector,
                           rank_threshold, thin_svd)
from matcoh.sampling import uniform_sample
from matcoh.synthetic import basis_aligned_matrix


def random_basis(n, q, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, q)))[0]


def test_max_leverage_basis_aligned():
    U = np.eye(10)[:, :3]
    assert basis_coherence(U).gamma == 1.0


def test_max_leverage_spread_vector():
    u = np.full((4, 1), 0.5)
    assert basis_coherence(u).gamma == pytest.approx(0.25)


def test_one_dimensional_basis_is_one_column():
    rep = basis_coherence(np.array([0.6, 0.8]))
    assert (rep.n, rep.rank_used) == (2, 1)
    assert rep.gamma == pytest.approx(0.64)
    assert rep.mu0 == rep.gamma * 2.0


def test_max_leverage_matches_explicit_projector():
    U = thin_svd(np.random.default_rng(7).standard_normal((12, 3))).left_basis()
    diag = np.diagonal(projector(U))
    assert basis_coherence(U).gamma == pytest.approx(float(np.max(diag)), abs=1e-13)


def test_max_leverage_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        basis_coherence(np.ones((5, 2)))


def test_mu_values_basis_aligned():
    U = np.eye(10)[:, :2]
    assert basis_coherence(U).mu0 == pytest.approx(5.0)
    assert basis_coherence(U).mu == pytest.approx(math.sqrt(10.0))


def test_mu_values_spread():
    u = np.full((4, 1), 0.5)
    assert basis_coherence(u).mu0 == pytest.approx(1.0)
    assert basis_coherence(u).mu == pytest.approx(1.0)


@pytest.mark.parametrize("n,q,seed", [(20, 1, 0), (20, 5, 1), (30, 12, 2), (15, 15, 3)])
def test_report_invariants(n, q, seed):
    U = random_basis(n, q, seed)
    rep = basis_coherence(U)
    assert q / n - 1e-12 <= rep.gamma <= 1.0
    assert rep.mu >= 1.0 - 1e-9
    assert rep.mu0 == rep.gamma * (rep.n / rep.rank_used)
    assert rep.mu**2 / rep.rank_used <= rep.mu0 + 1e-9
    assert rep.mu0 <= rep.mu**2 + 1e-9
    assert 1.0 - 1e-9 <= rep.mu0 <= n / q + 1e-9


def test_estimate_full_sample_matches_truth():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 25))
    truth = basis_coherence(thin_svd(X).left_basis()).gamma
    rep = estimate_coherence(X)
    assert abs(rep.gamma - truth) <= 1e-10


def test_estimate_zero_columns_is_degenerate_zero():
    X = basis_aligned_matrix(12, 12, 4)
    zeros = X[:, 5:9]  # none of the basis columns
    rep = estimate_coherence(zeros)
    assert rep.gamma == 0.0 and rep.rank_used == 0
    assert rep.mu == 0.0 and rep.mu0 == 0.0
    assert basis_coherence(thin_svd(X).left_basis()).gamma == 1.0


def test_estimate_exhaustive_rank3_subsets():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))
    truth = estimate_coherence(X).gamma
    full_rank_cases = 0
    for triple in itertools.combinations(range(20), 3):
        sub = X[:, list(triple)]
        f = thin_svd(sub)
        if f.numerical_rank == 3:
            full_rank_cases += 1
            assert abs(estimate_coherence(sub).gamma - truth) <= 1e-10
    assert full_rank_cases > 1000  # generic position: nearly all triples


def test_estimate_rank_truncation_clamps():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((15, 2)) @ rng.standard_normal((2, 10))
    assert estimate_coherence(X, rank=7).rank_used == 2
    assert estimate_coherence(X, rank=1).rank_used == 1
    with pytest.raises(ValueError):
        estimate_coherence(X, rank=0)


def test_monotone_under_nested_samples():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((25, 5)) @ rng.standard_normal((5, 25))
    order = rng.permutation(25)
    prev = 0.0
    for l in range(1, 26):
        g = estimate_coherence(X[:, order[:l]]).gamma
        assert g >= prev - 1e-12
        prev = g


def test_update_projector_in_span_is_identity():
    rng = np.random.default_rng(2)
    X1 = rng.standard_normal((8, 3))
    P = projector(thin_svd(X1).left_basis())
    x = X1 @ rng.standard_normal(3)
    P2, bound = update_projector(P, x)
    assert bound == 0.0
    np.testing.assert_array_equal(P2, P)


def test_update_projector_from_empty():
    P = np.zeros((3, 3))
    e2 = np.array([0.0, 1.0, 0.0])
    P2, bound = update_projector(P, e2)
    np.testing.assert_allclose(P2, np.diag([0.0, 1.0, 0.0]), atol=1e-15)
    assert bound == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(8))
def test_update_projector_matches_scratch(seed):
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((10, 3))
    x = rng.standard_normal(10)
    P = projector(thin_svd(X1).left_basis())
    P2, _ = update_projector(P, x)
    P_scratch = projector(thin_svd(np.column_stack([X1, x])).left_basis())
    assert np.max(np.abs(P2 - P_scratch)) <= 1e-10


def test_update_projector_dimension_mismatch():
    with pytest.raises(ValueError):
        update_projector(np.zeros((4, 4)), np.ones(3))


def test_sample_size_bound_unity_case():
    delta = 3.0 / math.e
    assert sample_size_bound(1, 1.0, delta, 1.0, 1.0) == 1
    assert sample_size_bound(2, 1.0, delta, 1.0, 1.0) == 4


def test_sample_size_bound_linear_in_mu0():
    delta = 3.0 / math.e
    assert sample_size_bound(2, 2.0, delta, 1.0, 1.0) == 8


def test_sample_size_bound_rejects_bad_delta():
    for bad in (0.0, -0.5, 3.0, 7.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sample_size_bound(2, 1.0, bad, 1.0, 1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["mu0", "c1", "c2"])
def test_sample_size_bound_rejects_non_finite_arguments(name, value):
    args = {"rank": 2, "mu0": 1.0, "failure_prob": 0.1, "c1": 1.0, "c2": 1.0}
    args[name] = value
    with pytest.raises(ValueError, match=rf"^(constant )?{name} must be finite"):
        sample_size_bound(**args)


def test_exactness_when_sample_rank_matches():
    for seed in range(20):
        g = np.random.default_rng(seed)
        X = g.standard_normal((40, 6)) @ g.standard_normal((6, 40))
        truth = estimate_coherence(X).gamma
        sample = uniform_sample(X, 8, seed=seed)
        if thin_svd(sample.submatrix).numerical_rank == 6:
            assert abs(estimate_coherence(sample.submatrix).gamma - truth) <= 1e-10


def test_basis_coherence_checks_each_basis_once(monkeypatch):
    calls = []
    real = matcoh.linalg.orthonormality_defect

    def counting(U):
        calls.append(U.shape)
        return real(U)

    monkeypatch.setattr(matcoh.linalg, "orthonormality_defect", counting)
    basis_coherence(random_basis(12, 3, 0))
    assert calls == [(12, 3)]


def test_basis_coherence_keeps_public_errors():
    with pytest.raises(ValueError, match="basis columns are not orthonormal"):
        basis_coherence(np.ones((5, 2)))


def test_nested_coherence_rejects_bad_rank_and_sizes():
    X = np.random.default_rng(3).standard_normal((10, 6))
    with pytest.raises(ValueError, match=r"^rank parameter must be >= 1, got 0$"):
        estimate_coherence(X[:, :2], 0)
    for sizes in ([], [3, 2], [2, 2], [0, 3], [3, 7]):
        with pytest.raises(ValueError):
            nested_factors(X, sizes)


_PREFIX_KINDS = ("generic", "low_rank", "duplicates", "zero_columns",
                 "leading_zeros", "leading_duplicates", "all_zero", "decaying",
                 "shared_drift")


def _shared_drift(n, width, lead, r, rng):
    """Rank-r X (leading `lead` columns one duplicate) plus a direction e
    orthogonal to its span, in every column after the lead with
    alternating signs: below each prefix's rank threshold in any one
    column, about twice the threshold over the whole sample."""
    X = rng.standard_normal((n, r)) @ rng.standard_normal((r, width))
    X[:, :lead] = X[:, [0]]
    e = np.linalg.qr(np.column_stack([X, rng.standard_normal(n)]))[0][:, r]
    tau = rank_threshold(thin_svd(X).singular_values, X.shape)
    drift = width - lead
    signs = np.where(np.arange(drift) % 2 == 0, 1.0, -1.0)
    X[:, lead:] += np.outer(e, 2.0 * tau / math.sqrt(drift - r) * signs)
    return X


@st.composite
def _prefix_cases(draw):
    """(columns, sizes, rank): shapes both tall and wide, sizes consecutive
    or jumping, and a rank parameter below, at, above or without the
    numerical rank. The exactly low-rank kinds drop directions in the
    sweep; their prefixes may start at rank 0 or 1 (leading zero or
    duplicate columns) and may gain a new direction at the rank
    threshold, in one column or spread below it over many."""
    n = draw(st.integers(1, 30))
    width = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(_PREFIX_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "shared_drift":
        # Tall, consecutive sizes from within the duplicate lead, so every
        # step sees one drift column.
        width = draw(st.integers(16, 30))
        n = draw(st.integers(width + 1, 40))
        lead = draw(st.integers(4, 6))
        X = _shared_drift(n, width, lead, draw(st.integers(1, 2)), rng)
        rank = draw(st.sampled_from([None, 1, 2, 3]))
        return X, list(range(draw(st.integers(2, lead)), width + 1)), rank
    if kind == "generic":
        X = rng.standard_normal((n, width))
    elif kind == "all_zero":
        X = np.zeros((n, width))
    elif kind == "decaying":
        ratio = draw(st.floats(0.05, 0.95))
        X = rng.standard_normal((n, width)) * ratio ** np.arange(width)
    else:
        r = draw(st.integers(1, min(n, width)))
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, width))
        if kind == "duplicates":
            X = X[:, rng.integers(0, r, width)]
        elif kind == "zero_columns":
            X[:, rng.random(width) < 0.4] = 0.0
        elif kind != "low_rank":
            lead = draw(st.integers(0, width - 1))
            X[:, :lead] = 0.0 if kind == "leading_zeros" else X[:, [lead]]
        if r < n and draw(st.booleans()):
            # One column gains a unit direction orthogonal to X's span, at
            # a tenth of X's rank threshold (rounding, to drop) or ten
            # times it (a direction to keep).
            basis = np.linalg.qr(np.column_stack([X, rng.standard_normal(n)]))[0]
            tau = rank_threshold(thin_svd(X).singular_values, X.shape)
            c = draw(st.sampled_from([0.1, 10.0]))
            X[:, draw(st.integers(0, width - 1))] += c * tau * basis[:, -1]
    if draw(st.booleans()):
        sizes = list(range(draw(st.integers(1, width)), width + 1))
    else:
        sizes = sorted(draw(st.sets(st.integers(1, width), min_size=1)))
    offset = draw(st.sampled_from([None, -2, -1, 0, 1, 3]))
    rank = None if offset is None else max(1, thin_svd(X).numerical_rank + offset)
    return X, sizes, rank


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_prefix_cases())
def test_nested_coherence_differential_against_prefix_svd(case):
    X, sizes, rank = case
    got = [basis_coherence(f.left_basis(rank)) for f in nested_factors(X, sizes)]
    assert len(got) == len(sizes)
    for l, report in zip(sizes, got):
        want = estimate_coherence(X[:, :l], rank=rank)
        assert (report.rank_used, report.n) == (want.rank_used, want.n)
        q = want.rank_used
        if q == 0:
            assert report.gamma == report.mu == 0.0
            continue
        # Where the kept and dropped singular values are close together,
        # the kept subspace itself is ill-determined; gamma is compared
        # only where the gap is resolved.
        s = thin_svd(X[:, :l]).singular_values
        gap = (s[q - 1] - (s[q] if q < s.size else 0.0)) / s[0]
        if gap >= 1e-6:
            assert abs(report.gamma - want.gamma) <= 1e-10


def _sweep_steps(X, sizes):
    """(l, numerical rank, SVD input widths, singular value count) per size."""
    widths = []

    def recording(block):
        widths[-1].append(np.shape(block)[1])
        return thin_svd(block)

    steps = []
    with mock.patch.object(matcoh.coherence, "thin_svd", recording):
        factors = nested_factors(X, sizes)
        for l in sizes:
            widths.append([])
            f = next(factors)
            steps.append((l, f.core.numerical_rank, widths[-1], f.core.singular_values.size))
    return steps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_prefix_cases())
def test_deflated_sweep_factors_only_the_kept_directions_and_new_columns(case):
    X, sizes, _ = case
    steps = _sweep_steps(X, sizes)
    # The first size factors R's own (min(n, l) x l) block.
    assert steps[0][2] == [sizes[0]]
    dropped = False
    for (l_prev, q_prev, _, count_prev), (l, _, widths, _) in zip(steps, steps[1:]):
        dropped = dropped or q_prev < count_prev
        if dropped:
            # The carried block, then R's own block only where the carried
            # spectrum came within the dropped norm of the threshold.
            assert widths[0] <= q_prev + (l - l_prev)
            assert widths[1:] in ([], [l])
        else:
            assert widths == [l]


def test_sweep_keeps_a_direction_spread_below_the_threshold_over_many_columns():
    # Columns 0..19 are one unit vector a, and columns 20..99 add +-c e_0
    # with e_0 orthogonal to a. No one new column lifts e_0 above the rank
    # threshold, but the prefix does: by l = 100 its second singular
    # value is about twice the threshold. The sweep must keep e_0 where
    # the prefix's SVD does, and e_0 is a coordinate vector, so gamma
    # then jumps from 1/(n - 1) to 1.
    n, width, lead = 200, 100, 20
    a = np.ones(n) / math.sqrt(n - 1)
    a[0] = 0.0
    c = 2.0 * n * np.finfo(np.float64).eps
    X = np.tile(a[:, None], (1, width))
    X[0, lead:] = c * np.where(np.arange(width - lead) % 2 == 0, 1.0, -1.0)
    sizes = list(range(1, width + 1))
    got = [basis_coherence(f.left_basis()) for f in nested_factors(X, sizes)]
    for l, report in zip(sizes, got, strict=True):
        want = estimate_coherence(X[:, :l])
        assert report.rank_used == want.rank_used
        # e_0's singular value is about 1e-13 of a's, so any SVD of the
        # prefix, this one's too, tilts it by rounding.
        assert report.gamma == pytest.approx(want.gamma, abs=1e-4)
    ranks = [report.rank_used for report in got]
    assert ranks[0] == ranks[lead] == 1 and ranks[-1] == 2
    assert got[lead].gamma == pytest.approx(1.0 / (n - 1))
    assert got[-1].gamma == pytest.approx(1.0, abs=1e-4)
    # Sizes whose carried spectrum comes near the threshold factor R's own
    # block again; once e_0 is kept the sweep carries two directions.
    widths = [w for _, _, w, _ in _sweep_steps(X, sizes)]
    assert any(w[1:] == [l] for l, w in zip(sizes, widths))
    assert widths[-1] == [3]


def test_sweep_without_dropped_directions_factors_r_blocks_exactly():
    # A full-rank sample never deflates: each size's core is the SVD of
    # R's own leading block, bit for bit.
    X = np.random.default_rng(11).standard_normal((30, 20))
    sizes = [3, 4, 9, 15, 20]
    R = np.linalg.qr(X)[1]
    for l, factor in zip(sizes, nested_factors(X, sizes), strict=True):
        want = thin_svd(R[:l, :l])
        np.testing.assert_array_equal(factor.core.singular_values, want.singular_values)
        np.testing.assert_array_equal(factor.core.U, want.U)
        assert factor.core.numerical_rank == l


def test_deflated_sweep_of_a_rank_deficient_sample():
    # Rank 4 from 2000 x 200 down to a (k x (4 + 10)) block per size once
    # the sample has reached its rank, and the same estimates as the SVD
    # of each prefix.
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2000, 4)) @ rng.standard_normal((4, 200))
    sizes = list(range(10, 201, 10))
    steps = _sweep_steps(X, sizes)
    assert [w for _, _, w, _ in steps] == [[10]] + [[14]] * 19
    assert {q for _, q, _, _ in steps} == {4}
    for l, factor in zip(sizes, nested_factors(X, sizes), strict=True):
        want = estimate_coherence(X[:, :l])
        assert basis_coherence(factor.left_basis()).gamma == pytest.approx(
            want.gamma, abs=1e-12)


def _rank_deficient_sample():
    # Rank 4, 20 x 12: sizes 3 and 4 take the Gram route, size 5 fails
    # its full-rank bound and drops a direction, and the sizes after it
    # carry the kept factor.
    rng = np.random.default_rng(12)
    return (rng.standard_normal((20, 4)) @ rng.standard_normal((4, 12)),
            list(range(2, 13)), 2)


def _tiny_sigma_min_sample():
    # Full rank (the SVD keeps every direction), but sigma_min / sigma_1
    # = 1e-10, so sigma_min^2 lies inside the Gram's rounding.
    rng = np.random.default_rng(13)
    U = np.linalg.qr(rng.standard_normal((30, 8)))[0]
    V = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    return (U * np.geomspace(1.0, 1e-10, 8)) @ V.T, [6, 8], 3


def _tie_at_the_cut_sample():
    # Orthonormal columns: every singular value is 1, so the cut at 2
    # splits an exact tie.
    rng = np.random.default_rng(14)
    return np.linalg.qr(rng.standard_normal((25, 6)))[0], [4, 6], 2


def _huge_sample():
    # Entries of 1e160: the Gram overflows, and delta with it.
    rng = np.random.default_rng(15)
    return 1e160 * rng.standard_normal((30, 20)), [5, 20], 2


@st.composite
def _ranked_prefix_cases(draw):
    """`_prefix_cases` with a rank parameter always set."""
    X, sizes, rank = draw(_prefix_cases())
    return X, sizes, rank or draw(st.integers(1, X.shape[1]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ranked_prefix_cases())
@example(_rank_deficient_sample())
@example(_tiny_sigma_min_sample())
@example(_tie_at_the_cut_sample())
@example(_huge_sample())
def test_gram_route_differential_against_the_svd_sweep(case):
    # The sweep of a truncating run against the SVD sweep, which passes no
    # rank: the same numerical rank and r_used at every size, gamma within
    # the Gram route's certified angle plus the SVD's own (2 x the
    # tolerance), and every size that takes the SVD factored bit for bit
    # as in the SVD sweep.
    X, sizes, rank = case
    X = np.asfortranarray(X)
    ranked = _prefix_factors(X[:, :sizes[-1]], sizes, rank)
    plain = _prefix_factors(X[:, :sizes[-1]], sizes)
    for f, g in zip(ranked, plain, strict=True):
        assert f.core.numerical_rank == g.core.numerical_rank
        got, want = f.left_basis(rank), g.left_basis(rank)
        assert got.shape == want.shape
        assert abs(_gamma(got) - _gamma(want)) <= 2 * _GRAM_MAX_ANGLE
        if f.core.V is not None:
            for a, b in ((f.core.U, g.core.U), (f.core.V, g.core.V),
                         (f.core.singular_values, g.core.singular_values)):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("sample, verdicts", [
    (_rank_deficient_sample, [((3, 3), True), ((4, 4), True), ((5, 5), False)]),
    (_tiny_sigma_min_sample, [((6, 6), False), ((8, 8), False)]),
    (_tie_at_the_cut_sample, [((4, 4), False), ((6, 6), False)]),
    (_huge_sample, [((5, 5), False), ((20, 20), False)]),
], ids=["rank-deficient", "tiny-sigma-min", "tie-at-the-cut", "huge"])
def test_gram_route_declines_each_example_as_stated(sample, verdicts):
    # (block shape, taken) of each `_gram_core` call on the samples the
    # differential test takes as examples: every size with rank < k tries
    # the route until its trial drops a direction, and a size it declines
    # takes the SVD.
    X, sizes, rank = sample()
    seen = []

    def recording(B, rank):
        core = _gram_core(B, rank)
        seen.append((B.shape, core is not None))
        return core

    with mock.patch.object(matcoh.coherence, "_gram_core", recording):
        factors = list(_prefix_factors(np.asfortranarray(X), sizes, rank))
    assert seen == verdicts
    assert sum(f.core.V is None for f in factors) == sum(t for _, t in seen)


def _wy_case(kind):
    """(columns, sizes) of one shape or reflector case of the sweep's QR."""
    rng = np.random.default_rng(21)
    if kind == "tall_rank_40":
        X = rng.standard_normal((2000, 40)) @ rng.standard_normal((40, 200))
        return X, list(range(10, 201, 10))
    if kind == "near_square":
        return rng.standard_normal((300, 200)), [1, 50, 100, 199, 200]
    if kind == "wide":
        return rng.standard_normal((50, 120)), [1, 30, 49, 50, 51, 120]
    if kind == "one_column":
        return rng.standard_normal((40, 1)), [1]
    if kind == "square":
        return rng.standard_normal((30, 30)), [10, 29, 30]
    if kind == "zero_and_duplicate_columns":
        X = rng.standard_normal((60, 30))
        X[:, [0, 5, 17]] = 0.0
        X[:, [7, 20]] = X[:, [3, 8]]
        return X, list(range(1, 31))
    assert kind == "all_zero"
    return np.zeros((20, 10)), list(range(1, 11))


_WY_KINDS = ("tall_rank_40", "near_square", "wide", "one_column", "square",
             "zero_and_duplicate_columns", "all_zero")
# Blocks whose QR has a reflector with tau 0: a zero column, or the last
# reflector of a square or wide block, which acts on one entry.
_TRIVIAL_REFLECTOR_KINDS = ("wide", "square", "zero_and_duplicate_columns",
                            "all_zero")


@pytest.mark.parametrize("kind", _WY_KINDS)
def test_left_basis_matches_the_explicit_q(kind):
    # Differential: Q_k W from the compact WY form against the n x k Q of
    # `np.linalg.qr`, for the core's W and for W = I (Q_k itself).
    X, sizes = _wy_case(kind)
    tau = np.linalg.qr(X, mode="raw")[1]
    assert (0.0 in tau) == (kind in _TRIVIAL_REFLECTOR_KINDS)
    Q = np.linalg.qr(X)[0]
    for l, factor in zip(sizes, nested_factors(X, sizes), strict=True):
        k = min(X.shape[0], l)
        identity = ThinSVD(np.eye(k), np.ones(k), None, k)
        for f in (factor, replace(factor, core=identity)):
            W = f.core.left_basis()
            got = f.left_basis()
            assert got.shape == (X.shape[0], W.shape[1])
            if got.size:
                assert np.max(np.abs(got - Q[:, :k] @ W)) <= 1e-13
            assert orthonormality_defect(got) <= 1e-13


@pytest.mark.parametrize("kind", _WY_KINDS)
def test_sweep_factors_numpy_qr_r_byte_for_byte(kind):
    # With one size, the sweep's one SVD is of the whole R.
    X, _ = _wy_case(kind)
    seen = []

    def recording(block):
        seen.append(np.array(block))
        return thin_svd(block)

    with mock.patch.object(matcoh.coherence, "thin_svd", recording):
        next(nested_factors(X, [X.shape[1]]))
    R = np.linalg.qr(X)[1]
    assert seen[0].shape == R.shape
    assert seen[0].tobytes() == np.ascontiguousarray(R).tobytes()


def test_invert_upper_keeps_the_triangle():
    rng = np.random.default_rng(4)
    for m in (1, 32, 33, 100, 200):
        U = np.triu(rng.standard_normal((m, m)) / math.sqrt(m), 1)
        np.fill_diagonal(U, rng.uniform(0.5, 1.0, m))
        inv = U.copy()
        matcoh.coherence._invert_upper(inv)
        assert not np.any(np.tril(inv, -1))
        np.testing.assert_allclose(inv @ U, np.eye(m), rtol=0, atol=1e-12)


def test_sweep_peak_memory_stays_within_twice_the_block():
    # The QR's copy of the block, R, T and bases of the sample's rank:
    # no n x L Q. The experiment's blocks are read-only and column-major.
    rng = np.random.default_rng(8)
    X = np.asfortranarray(rng.standard_normal((2000, 40)) @ rng.standard_normal((40, 200)))
    X.setflags(write=False)
    tracemalloc.start()
    try:
        for f in nested_factors(X, list(range(10, 201, 10))):
            f.left_basis()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * X.nbytes, peak / X.nbytes
