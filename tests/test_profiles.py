"""Radial profile construction, evaluation, and loading."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schoenberg_lab import catalog_profile, profile_from_csv, tabulated_profile
from schoenberg_lab.profiles import catalog_ids, resolve_profile


class TestCatalog:
    def test_ids(self):
        assert catalog_ids() == ["cauchy", "exp-mixture", "gaussian", "triangle"]

    @pytest.mark.parametrize("pid", ["gaussian", "cauchy", "exp-mixture", "triangle"])
    def test_normalized_at_zero(self, pid):
        assert catalog_profile(pid)(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_values(self):
        f = catalog_profile("gaussian")
        assert f(1.0) == pytest.approx(np.exp(-0.5))
        assert f(np.linalg.norm(np.zeros(4))) == pytest.approx(1.0)
        # ||(1,1)||^2 = 2 so f = e^-1
        assert f(np.linalg.norm([1.0, 1.0])) == pytest.approx(np.exp(-1.0))

    def test_cauchy_and_exp_mixture(self):
        assert catalog_profile("cauchy")(2.0) == pytest.approx(np.exp(-2.0))
        assert catalog_profile("exp-mixture")(np.sqrt(2.0)) == pytest.approx(0.5)

    def test_triangle_support(self):
        f = catalog_profile("triangle")
        assert f(0.5) == pytest.approx(0.5)
        assert f(1.0) == 0.0
        assert f(7.3) == 0.0

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown profile"):
            catalog_profile("sinc")


# The catalog's closed forms as plain numpy expressions, before each was
# written to fill one array in place.
PLAIN_CATALOG = {
    "gaussian": lambda t: np.exp(-np.square(t) / 2.0),
    "cauchy": lambda t: np.exp(-t),
    "exp-mixture": lambda t: 1.0 / (1.0 + np.square(t) / 2.0),
    "triangle": lambda t: np.maximum(0.0, 1.0 - t),
}


class TestCatalogIsThePlainExpression:
    @pytest.mark.parametrize("pid", sorted(PLAIN_CATALOG))
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 - 2.0**-53]),
                                     st.floats(min_value=0.0, max_value=1e150)),
                           min_size=18, max_size=18))
    @example(values=[0.0] * 18)
    @example(values=[-0.0, 1.0] * 9)
    def test_bit_for_bit(self, pid, values):
        fn = catalog_profile(pid).fn
        t = np.asarray(values)
        # 0-d, 1-d, and a (B, K, K) stack of distance matrices as certify passes them
        for arg in (t[1], t, t.reshape(2, 3, 3)):
            arg = np.array(arg)
            before = arg.tobytes()
            out = fn(arg)
            expected = PLAIN_CATALOG[pid](arg)
            assert np.shape(out) == np.shape(expected)
            assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()
            assert arg.tobytes() == before  # the input is left alone
            assert not np.shares_memory(out, arg)

    @pytest.mark.parametrize("pid", sorted(PLAIN_CATALOG))
    def test_scalar_call_returns_a_float(self, pid):
        assert catalog_profile(pid)(0.5) == float(PLAIN_CATALOG[pid](np.asarray(0.5)))
        assert type(catalog_profile(pid)(0.5)) is float


class TestEvaluation:
    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError, match="nonnegative"):
            catalog_profile("gaussian")(-0.1)

    def test_rejects_non_finite_vector(self):
        f = catalog_profile("gaussian")
        for t in (np.nan, np.inf, [1.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                f(t)

    def test_vectorized(self):
        f = catalog_profile("gaussian")
        t = np.linspace(0, 3, 7)
        np.testing.assert_allclose(f(t), np.exp(-t**2 / 2))


class TestTabulated:
    def test_node_hit(self):
        f = tabulated_profile([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
        # ||(0.6, 0.8)|| = 1 exactly, hitting the middle node
        assert f(np.linalg.norm([0.6, 0.8])) == pytest.approx(0.5)

    def test_interpolation_stays_nonnegative_and_bounded(self):
        f = tabulated_profile([0.0, 0.5, 1.0, 3.0], [1.0, 0.6, 0.1, 0.0])
        t = np.linspace(0, 3, 301)
        vals = f(t)
        assert np.all(vals >= 0)
        assert np.all(vals <= 1 + 1e-12)
        # shape-preserving interpolation keeps decreasing data decreasing
        assert np.all(np.diff(vals) <= 1e-12)

    def test_extrapolation_is_an_error(self):
        f = tabulated_profile([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
        with pytest.raises(ValueError, match="extrapolation"):
            f(2.5)

    def test_requires_leading_unit_node(self):
        with pytest.raises(ValueError, match="t=0, f=1"):
            tabulated_profile([0.5, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="t=0, f=1"):
            tabulated_profile([0.0, 1.0], [0.9, 0.5])

    def test_requires_sorted_nodes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            tabulated_profile([0.0, 2.0, 1.0], [1.0, 0.2, 0.5])


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("t,f\n0,1\n1,0.5\n2,0.2\n")
        f = profile_from_csv(path)
        assert f(1.0) == pytest.approx(0.5)
        assert f.t_max == 2.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            profile_from_csv(path)

    def test_resolve_prefers_catalog(self, tmp_path):
        t = np.linspace(0.0, 4.0, 41)
        for pid in catalog_ids():
            resolved, looked_up = resolve_profile(pid), catalog_profile(pid)
            assert resolved.label == looked_up.label == pid
            np.testing.assert_array_equal(resolved(t), looked_up(t))
        path = tmp_path / "p.csv"
        path.write_text("t,f\n0,1\n1,0.4\n")
        assert resolve_profile(str(path))(1.0) == pytest.approx(0.4)
        known = "cauchy, exp-mixture, gaussian, triangle"
        with pytest.raises(KeyError, match=known):
            resolve_profile("no-such-thing")
        with pytest.raises(KeyError, match=known):
            catalog_profile("no-such-thing")
