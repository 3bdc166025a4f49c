"""Construction-time validation of the domain types: one violation per invariant."""

import numpy as np
import pytest

from ulasso.model import (
    Dataset,
    DegenerateTailsError,
    DesignSpec,
    Direction,
    ExtremeSubset,
    FitResult,
)


def _spec_kwargs(p=3):
    return dict(
        p=p,
        sigma_mat=np.eye(p),
        beta0=np.array([1.0, 0.5, 0.0]),
        alpha0=np.array([1.0, 0.6, 0.2]),
        surrogate_noise_sd=1.0,
    )


class TestDesignSpec:
    def test_valid(self):
        spec = DesignSpec(**_spec_kwargs())
        assert spec.p == 3
        with pytest.raises(ValueError):
            spec.sigma_mat[0, 0] = 2.0  # frozen array

    def test_asymmetric_sigma(self):
        kwargs = _spec_kwargs()
        sigma = np.eye(3)
        sigma[0, 1] = 1e-6
        kwargs["sigma_mat"] = sigma
        with pytest.raises(ValueError, match="symmetric"):
            DesignSpec(**kwargs)

    def test_cholesky_factor_is_derived_and_frozen(self):
        kwargs = _spec_kwargs()
        kwargs["sigma_mat"] = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        spec = DesignSpec(**kwargs)
        assert np.array_equal(spec.chol, np.linalg.cholesky(spec.sigma_mat))
        with pytest.raises(ValueError):
            spec.chol[0, 0] = 2.0

    def test_not_positive_definite(self):
        kwargs = _spec_kwargs()
        kwargs["sigma_mat"] = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="positive definite"):
            DesignSpec(**kwargs)

    def test_wrong_length_beta(self):
        kwargs = _spec_kwargs()
        kwargs["beta0"] = np.array([1.0, 0.5])
        with pytest.raises(ValueError, match="length p"):
            DesignSpec(**kwargs)

    def test_nonfinite_alpha(self):
        kwargs = _spec_kwargs()
        kwargs["alpha0"] = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            DesignSpec(**kwargs)

    def test_zero_alpha_rejected(self):
        kwargs = _spec_kwargs()
        kwargs["alpha0"] = np.zeros(3)
        with pytest.raises(ValueError, match="zero vector"):
            DesignSpec(**kwargs)

    def test_negative_noise_sd(self):
        kwargs = _spec_kwargs()
        kwargs["surrogate_noise_sd"] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            DesignSpec(**kwargs)


class TestDataset:
    def test_valid_with_labels(self):
        ds = Dataset(x=np.ones((4, 2)), s=np.arange(4.0), y=np.array([0.0, 1.0, 1.0, 0.0]))
        assert ds.n_rows == 4 and ds.p == 2

    def test_nonfinite_entry(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(x=np.array([[1.0], [np.inf]]), s=np.zeros(2))

    def test_bad_label_value(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset(x=np.ones((2, 1)), s=np.zeros(2), y=np.array([0.0, 2.0]))

    def test_writable_inputs_copied(self):
        x, s, y = np.ones((3, 2)), np.arange(3.0), np.array([0.0, 1.0, 1.0])
        ds = Dataset(x=x, s=s, y=y)
        for a in (x, s, y):
            assert a.flags.writeable
            a[0] = 7.0
        assert ds.x[0, 0] == 1.0 and ds.s[0] == 0.0 and ds.y[0] == 0.0
        for a in (ds.x, ds.s, ds.y):
            assert not a.flags.writeable

    def test_read_only_c_contiguous_inputs_kept(self):
        x, s, y = np.ones((3, 2)), np.arange(3.0), np.array([0.0, 1.0, 1.0])
        for a in (x, s, y):
            a.setflags(write=False)
        ds = Dataset(x=x, s=s, y=y)
        assert ds.x is x and ds.s is s and ds.y is y

    def test_read_only_fortran_input_copied(self):
        x = np.asfortranarray(np.ones((3, 2)))
        x.setflags(write=False)
        ds = Dataset(x=x, s=np.arange(3.0))
        assert ds.x is not x and not ds.x.flags.writeable


def _subset_kwargs(s=(1.0, 2.0, 9.0, 10.0), y=None):
    ds = Dataset(x=np.arange(8.0).reshape(4, 2), s=np.array(s), y=y)
    return dict(q=0.5, delta_lo=2.0, delta_hi=9.0, source_indices=np.array([0, 1, 2, 3]), ds=ds)


class TestExtremeSubset:
    def test_valid(self):
        sub = ExtremeSubset(**_subset_kwargs(y=np.array([0.0, 1.0, 1.0, 1.0])))
        assert sub.n_q == 4 and sub.p == 2
        assert np.array_equal(sub.y_star, [0.0, 0.0, 1.0, 1.0])
        assert np.array_equal(sub.x_sub, np.arange(8.0).reshape(4, 2))
        assert np.array_equal(sub.y_true, [0.0, 1.0, 1.0, 1.0])
        for a in (sub.x_sub, sub.s_sub, sub.y_true, sub.y_star, sub.source_indices):
            assert not a.flags.writeable

    def test_q_out_of_range(self):
        kwargs = _subset_kwargs()
        kwargs["q"] = 1.5
        with pytest.raises(ValueError, match="q must lie"):
            ExtremeSubset(**kwargs)

    def test_collapsed_thresholds(self):
        kwargs = _subset_kwargs()
        kwargs["delta_lo"] = kwargs["delta_hi"]
        with pytest.raises(DegenerateTailsError):
            ExtremeSubset(**kwargs)

    def test_row_between_tails(self):
        with pytest.raises(ValueError, match="exactly one tail"):
            ExtremeSubset(**_subset_kwargs(s=(1.0, 5.0, 9.0, 10.0)))

    def test_unbalanced_labels(self):
        with pytest.raises(ValueError, match="equal"):
            ExtremeSubset(**_subset_kwargs(s=(1.0, 9.0, 9.5, 10.0)))

    def test_odd_size_rejected(self):
        kwargs = _subset_kwargs()
        kwargs["source_indices"] = kwargs["source_indices"][:3]
        with pytest.raises(ValueError, match="even"):
            ExtremeSubset(**kwargs)

    def test_duplicate_source_indices(self):
        kwargs = _subset_kwargs()
        kwargs["source_indices"] = np.array([0, 1, 2, 2])
        with pytest.raises(ValueError, match="distinct"):
            ExtremeSubset(**kwargs)

    @pytest.mark.parametrize("bad", [-1, -4, 4])
    def test_source_index_out_of_range(self, bad):
        # -1 and -4 would wrap to rows 3 and 0 without the range check.
        kwargs = _subset_kwargs()
        kwargs["source_indices"] = np.array([0, 1, 2, bad])
        with pytest.raises(ValueError, match=r"\[0, N\)"):
            ExtremeSubset(**kwargs)


class TestFitResult:
    def test_valid(self):
        fit = FitResult(
            beta_hat=np.array([1.0, 0.0]),
            lam=0.1,
            kkt_residual=1e-9,
            loss=0.3,
            n_iterations=5,
            converged=True,
        )
        assert fit.support == frozenset({0})
        assert fit.objective == 0.3 + 0.1 * 1.0

    def test_negative_kkt(self):
        with pytest.raises(ValueError, match="kkt"):
            FitResult(
                beta_hat=np.zeros(2),
                lam=0.1,
                kkt_residual=-1.0,
                loss=0.3,
                n_iterations=5,
                converged=True,
            )


class TestDirection:
    def test_unit_ok(self):
        d = Direction(v=np.array([0.6, 0.8]))
        assert d.degenerate is False

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            Direction(v=np.array([0.6, 0.9]))

    def test_degenerate_zero_allowed(self):
        d = Direction(v=np.zeros(3))
        assert d.degenerate is True and np.all(d.v == 0.0)
