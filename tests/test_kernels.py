"""Target-category operations: kernels, distributions, distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontokit.errors import SignedUnsupportedError, SpaceMismatchError, WrongSpaceError
from ontokit.kernels import (
    TWO,
    Distribution,
    FiniteSpace,
    ResponseFunction,
    SignedKernel,
    distribution_rows,
    dtensor,
    dual_state_kernel,
    evaluate,
    identity_kernel,
    kcompose,
    ktensor,
    point_mass,
    product_space,
    response_rows,
    support,
    uniform,
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
    m = np.array(cols).T
    return SignedKernel(src, dst, m, entry_bound=max(1.0, float(np.max(np.abs(m)))))


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
        assert np.max(np.abs(kcompose(identity_kernel(ABC), f).matrix - f.matrix)) == 0
        assert np.max(np.abs(kcompose(f, identity_kernel(AB)).matrix - f.matrix)) == 0

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
        t = ktensor(identity_kernel(AB), identity_kernel(ABC))
        assert np.max(np.abs(t.matrix - np.eye(6))) == 0
        assert t.source == product_space(AB, ABC)

    def test_point_mass_tensor(self):
        da = point_mass(AB, "b")
        db = point_mass(ABC, "c")
        prod = dtensor(da, db)
        assert prod.weights[prod.space.index("(b,c)")] == 1.0
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
        assert evaluate(point_mass(TWO, "0")) == 1.0

    def test_uniform(self):
        assert evaluate(uniform(TWO)) == 0.5

    def test_signed_state(self):
        assert evaluate(Distribution(TWO, [1.3, -0.3])) == 1.3

    def test_wrong_space(self):
        with pytest.raises(WrongSpaceError):
            evaluate(uniform(ABC))


class TestVariationalDistance:
    def test_distinct_point_masses(self):
        assert variational_distance(point_mass(AB, "a"), point_mass(AB, "b")) == 1.0

    def test_uniform_vs_point(self):
        d = variational_distance(uniform(TWO), point_mass(TWO, "0"))
        assert abs(d - variational_subset_oracle(uniform(TWO), point_mass(TWO, "0"))) < 1e-15
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
        assert support(point_mass(ABC, "b")) == ("b",)

    def test_uniform(self):
        assert support(uniform(ABC)) == ("a", "b", "c")

    def test_threshold(self):
        mu = Distribution(ABC, [0.5, 0.5, 0.0])
        assert support(mu) == ("a", "b")

    def test_signed_rejected(self):
        with pytest.raises(SignedUnsupportedError):
            support(Distribution(AB, [1.5, -0.5]))


class TestDualState:
    def test_dual_of_point_mass(self):
        chi = dual_state_kernel(point_mass(AB, "a"))
        assert float(chi.values @ point_mass(AB, "a").weights) == 1.0
        assert float(chi.values @ point_mass(AB, "b").weights) == 0.0

    def test_dual_of_uniform_against_itself(self):
        mu = uniform(TWO)
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

    def test_entry_bound_enforced(self):
        with pytest.raises(ValueError):
            SignedKernel(AB, AB, [[1.5, 0.0], [-0.5, 1.0]])
        # same matrix passes with a wider declared bound
        SignedKernel(AB, AB, [[1.5, 0.0], [-0.5, 1.0]], entry_bound=1.5)

    def test_markov_flag(self):
        assert SignedKernel(AB, AB, [[0.7, 0.2], [0.3, 0.8]]).markov
        assert not SignedKernel(AB, AB, [[1.0, -0.2], [0.0, 1.2]], entry_bound=1.2).markov


class TestRowConstructors:
    """A matrix checked once gives the objects that its rows give one at a
    time, and fails with the first failing row's error."""

    def test_rows_match_one_at_a_time(self):
        rng = rng_for(41)
        w = rng.uniform(0, 1, (6, 3))
        w /= w.sum(axis=1, keepdims=True)
        w[2] = [1.5, -0.5, 0.0]
        for got, row in zip(distribution_rows(ABC, w), w):
            want = Distribution(ABC, row)
            assert got.space == ABC and got.weights.tobytes() == want.weights.tobytes()
            assert got.is_probability == want.is_probability
        r = rng.uniform(0, 1, (4, 3))
        assert [x.values.tolist() for x in response_rows(ABC, r)] == r.tolist()

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
        assert _error(lambda: response_rows(ABC, np.array(rows))) == first


def _error(build):
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    return None
