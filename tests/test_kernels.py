"""Target-category operations: kernels, distributions, distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontokit.errors import (
    SignedUnsupportedError, SpaceMismatchError, VerificationFailedError, WrongSpaceError,
)
from ontokit.kernels import (
    TWO,
    Distribution,
    FiniteSpace,
    ResponseFunction,
    SignedKernel,
    _check_response_rows,
    distribution_rows,
    dtensor,
    dual_state_kernel,
    evaluate,
    kcompose,
    ktensor,
    product_space,
    support_mask,
    variational_distance,
)
from ontokit.sampling import rng_for

AB = FiniteSpace(("a", "b"))
ABC = FiniteSpace(("a", "b", "c"))


def random_distribution(rng, space, signed=False):
    if signed:
        w = rng.normal(size=space.size)
        w = w - (w.sum() - 1.0) / space.size
        w = np.clip(w, -1.0, 1.0)
        w = w - (w.sum() - 1.0) / space.size
        return Distribution(space, w)
    w = rng.uniform(0.0, 1.0, space.size) + 1e-3
    return Distribution(space, w / w.sum())


def random_kernel(rng, src, dst, signed=False):
    cols = [random_distribution(rng, dst, signed).weights for _ in range(src.size)]
    return SignedKernel(src, dst, np.array(cols).T)


def variational_subset_oracle(mu, nu):
    """Enumerate every event and take the sup directly."""
    n = mu.space.size
    best = 0.0
    for mask in range(2 ** n):
        idx = [i for i in range(n) if (mask >> i) & 1]
        best = max(best, abs(mu.weights[idx].sum() - nu.weights[idx].sum()))
    return best


class TestCompose:
    def test_dirac_identity(self):
        rng = rng_for(61)
        f = random_kernel(rng, AB, ABC)
        id_ab, id_abc = SignedKernel(AB, AB, np.eye(2)), SignedKernel(ABC, ABC, np.eye(3))
        assert np.max(np.abs(kcompose(id_abc, f).matrix - f.matrix)) == 0
        assert np.max(np.abs(kcompose(f, id_ab).matrix - f.matrix)) == 0

    def test_two_point_hand_multiplication(self):
        half = SignedKernel(AB, AB, [[0.5, 0.5], [0.5, 0.5]])
        sq = kcompose(half, half)
        # 2x2 hand product: each entry .5*.5 + .5*.5 = .5
        assert np.max(np.abs(sq.matrix - half.matrix)) < 1e-15

    def test_signed_column_sums_preserved(self):
        rng = rng_for(62)
        f = random_kernel(rng, AB, ABC, signed=True)
        g = random_kernel(rng, ABC, AB, signed=True)
        composite = kcompose(g, f)
        assert np.max(np.abs(composite.matrix.sum(axis=0) - 1.0)) < 1e-9

    def test_associativity_exact(self):
        rng = rng_for(63)
        f = random_kernel(rng, AB, ABC, signed=True)
        g = random_kernel(rng, ABC, ABC, signed=True)
        h = random_kernel(rng, ABC, AB, signed=True)
        lhs = kcompose(kcompose(h, g), f)
        rhs = kcompose(h, kcompose(g, f))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12

    def test_space_mismatch(self):
        rng = rng_for(64)
        with pytest.raises(SpaceMismatchError):
            kcompose(random_kernel(rng, AB, AB), random_kernel(rng, AB, ABC))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_markov_closed_under_compose_and_tensor(self, seed):
        rng = rng_for(seed)
        f = random_kernel(rng, AB, ABC)
        g = random_kernel(rng, ABC, AB)
        assert f.markov and g.markov
        assert kcompose(g, f).markov
        assert ktensor(f, g).markov


class TestTensor:
    def test_identity_tensor(self):
        t = ktensor(SignedKernel(AB, AB, np.eye(2)), SignedKernel(ABC, ABC, np.eye(3)))
        assert np.max(np.abs(t.matrix - np.eye(6))) == 0
        assert t.source == product_space(AB, ABC)

    def test_point_mass_tensor(self):
        da = Distribution(AB, [0.0, 1.0])
        db = Distribution(ABC, [0.0, 0.0, 1.0])
        prod = dtensor(da, db)
        assert prod.weights[prod.space.points.index("(b,c)")] == 1.0
        assert prod.weights.sum() == 1.0

    def test_product_measure_on_all_rectangles(self):
        rng = rng_for(65)
        for size_x in (2, 3, 4):
            for size_y in (2, 3, 4):
                x = FiniteSpace(tuple(f"x{i}" for i in range(size_x)))
                y = FiniteSpace(tuple(f"y{i}" for i in range(size_y)))
                mu = random_distribution(rng, x)
                nu = random_distribution(rng, y)
                prod = dtensor(mu, nu)
                grid = prod.weights.reshape(size_x, size_y)
                for mask_u in range(2 ** size_x):
                    idx_u = [i for i in range(size_x) if (mask_u >> i) & 1]
                    for mask_v in range(2 ** size_y):
                        idx_v = [j for j in range(size_y) if (mask_v >> j) & 1]
                        lhs = grid[np.ix_(idx_u, idx_v)].sum() if idx_u and idx_v else 0.0
                        rhs = mu.weights[idx_u].sum() * nu.weights[idx_v].sum()
                        assert abs(lhs - rhs) < 1e-12

    def test_interchange_law(self):
        rng = rng_for(66)
        f = random_kernel(rng, AB, ABC, signed=True)
        fp = random_kernel(rng, ABC, AB, signed=True)
        g = random_kernel(rng, AB, AB, signed=True)
        gp = random_kernel(rng, AB, AB, signed=True)
        lhs = kcompose(ktensor(f, g), ktensor(fp, gp))
        rhs = ktensor(kcompose(f, fp), kcompose(g, gp))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12


class TestEvaluate:
    def test_point_mass(self):
        assert evaluate(Distribution(TWO, [1.0, 0.0])) == 1.0

    def test_uniform(self):
        assert evaluate(Distribution(TWO, [0.5, 0.5])) == 0.5

    def test_signed_state(self):
        assert evaluate(Distribution(TWO, [1.3, -0.3])) == 1.3

    def test_wrong_space(self):
        with pytest.raises(WrongSpaceError):
            evaluate(Distribution(ABC, np.full(3, 1 / 3)))


class TestVariationalDistance:
    def test_distinct_point_masses(self):
        a, b = Distribution(AB, [1.0, 0.0]), Distribution(AB, [0.0, 1.0])
        assert variational_distance(a, b) == 1.0

    def test_uniform_vs_point(self):
        uniform, point = Distribution(TWO, [0.5, 0.5]), Distribution(TWO, [1.0, 0.0])
        d = variational_distance(uniform, point)
        assert abs(d - variational_subset_oracle(uniform, point)) < 1e-15
        assert abs(d - 0.5) < 1e-15

    def test_self_distance_zero(self):
        rng = rng_for(67)
        mu = random_distribution(rng, ABC)
        assert variational_distance(mu, mu) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_subset_oracle_and_half_l1(self, seed, signed):
        rng = rng_for(seed)
        mu = random_distribution(rng, ABC, signed)
        nu = random_distribution(rng, ABC, signed)
        d = variational_distance(mu, nu)
        assert abs(d - variational_subset_oracle(mu, nu)) < 1e-12
        assert abs(d - 0.5 * np.sum(np.abs(mu.weights - nu.weights))) < 1e-12


class TestSupport:
    def test_point_mass(self):
        assert support_mask(Distribution(ABC, [0.0, 1.0, 0.0])).tolist() == [False, True, False]

    def test_uniform(self):
        assert support_mask(Distribution(ABC, np.full(3, 1 / 3))).tolist() == [True, True, True]

    def test_threshold(self):
        mu = Distribution(ABC, [0.5, 0.5, 0.0])
        assert support_mask(mu).tolist() == [True, True, False]

    def test_signed_rejected(self):
        with pytest.raises(SignedUnsupportedError):
            support_mask(Distribution(AB, [1.5, -0.5]))


class TestDualState:
    def test_dual_of_point_mass(self):
        chi = dual_state_kernel(Distribution(AB, [1.0, 0.0]))
        assert float(chi.values @ [1.0, 0.0]) == 1.0
        assert float(chi.values @ [0.0, 1.0]) == 0.0

    def test_dual_of_uniform_against_itself(self):
        mu = Distribution(TWO, [0.5, 0.5])
        chi = dual_state_kernel(mu)
        # sum over points of (1/2)^2 twice
        assert abs(float(chi.values @ mu.weights) - 0.5) < 1e-15

    def test_signed_rejected(self):
        with pytest.raises(SignedUnsupportedError):
            dual_state_kernel(Distribution(AB, [1.5, -0.5]))


class TestValidation:
    def test_column_sum_enforced(self):
        with pytest.raises(ValueError):
            SignedKernel(AB, AB, [[0.5, 0.5], [0.4, 0.5]])

    def test_entries_beyond_one_accepted(self):
        # signed kernels bound their column sums, not their entries
        k = SignedKernel(AB, AB, [[1.5, 0.0], [-0.5, 1.0]])
        assert k.matrix[0, 0] == 1.5 and not k.markov

    def test_markov_flag(self):
        assert SignedKernel(AB, AB, [[0.7, 0.2], [0.3, 0.8]]).markov
        assert not SignedKernel(AB, AB, [[1.0, -0.2], [0.0, 1.2]]).markov


class TestComplexInput:
    """Complex input is read as real only when its imaginary part is zero.
    A float cast would drop that part from an array, with only a
    ComplexWarning to show it, and fail on a list with a bare TypeError."""

    def test_signed_kernel(self):
        entries = [[0.9 + 0.5j, 0.3], [0.1 - 0.5j, 0.7]]
        for matrix in (np.array(entries), entries):
            with pytest.raises(VerificationFailedError, match="^kernel matrix has a nonzero imaginary part$"):
                SignedKernel(AB, AB, matrix)
        k = SignedKernel(AB, AB, np.array([[0.9, 0.3], [0.1, 0.7]], dtype=complex))
        assert k.matrix.dtype == np.float64 and k.matrix.tolist() == [[0.9, 0.3], [0.1, 0.7]]

    def test_distribution(self):
        for weights in ([0.5 + 2j, 0.5 - 2j], [0.5 + complex(0, np.nan), 0.5]):
            for form in (np.array(weights), weights):
                with pytest.raises(VerificationFailedError, match="^weight vector has a nonzero imaginary part$"):
                    Distribution(AB, form)
        with pytest.raises(VerificationFailedError, match="^weight matrix has a nonzero imaginary part$"):
            distribution_rows(AB, np.array([[1.0, 0.0], [0.5 + 1e-300j, 0.5]]))
        mu = Distribution(AB, np.array([0.25, 0.75], dtype=complex))
        assert mu.weights.dtype == np.float64 and mu.weights.tolist() == [0.25, 0.75]

    def test_response_function(self):
        with pytest.raises(VerificationFailedError, match="^response has a nonzero imaginary part$"):
            ResponseFunction(AB, np.array([1.0, 0.5j]))
        chi = ResponseFunction(AB, np.array([1.0, 0.5], dtype=np.complex64))
        assert chi.values.dtype == np.float64 and chi.values.tolist() == [1.0, 0.5]


class TestRowConstructors:
    """A matrix checked once gives the objects that its rows give one at a
    time, and fails with the first failing row's error; so does the check
    of a model's response matrix."""

    def test_rows_match_one_at_a_time(self):
        rng = rng_for(41)
        w = rng.uniform(0, 1, (6, 3))
        w /= w.sum(axis=1, keepdims=True)
        w[2] = [1.5, -0.5, 0.0]
        for got, row in zip(distribution_rows(ABC, w), w):
            want = Distribution(ABC, row)
            assert got.space == ABC and got.weights.tobytes() == want.weights.tobytes()
            assert got.is_probability == want.is_probability

    @pytest.mark.parametrize("rows", [
        [[0.5, 0.5, 0.0], [0.7, 0.7, 0.0], [np.nan, 0.5, 0.5]],
        [[0.5, 0.5, 0.0], [np.inf, -np.inf, 1.0], [0.7, 0.7, 0.0]],
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.1], [0.7, 0.7, 0.0]],
        [[0.5, 0.5]],
    ])
    def test_distribution_errors(self, rows):
        first = next(e for e in map(_error, [lambda r=r: Distribution(ABC, r) for r in rows]) if e)
        assert _error(lambda: distribution_rows(ABC, np.array(rows))) == first

    @pytest.mark.parametrize("rows", [
        [[0.5, 0.5, 0.0], [0.5, 1.5, 0.0]],
        [[0.5, np.nan, 0.0], [0.5, -0.5, 0.0]],
        [[0.5, 0.5]],
    ])
    def test_response_errors(self, rows):
        first = next(e for e in map(_error, [lambda r=r: ResponseFunction(ABC, r) for r in rows]) if e)
        assert _error(lambda: _check_response_rows(ABC, np.array(rows))) == first

    def test_nan_response_rejected(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            ResponseFunction(ABC, [1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            _check_response_rows(ABC, np.array([[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]]))


def _error(build):
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    return None
