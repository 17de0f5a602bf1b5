"""Prototype bank: simplex coefficients, hull projection, gradients."""

import numpy as np
import pytest

from scenehull.hull import PrototypeBank, coefficient_entropy, softmax


def tiny_bank(k=5, d=4, d_a=3, lam=0.7, seed=0):
    return PrototypeBank.create(
        num_prototypes=k, feature_dim=d, attention_dim=d_a,
        inv_temperature=lam, seed=seed,
    )


class TestConstruction:
    def test_overcomplete_enforced(self):
        with pytest.raises(ValueError, match="more prototypes"):
            PrototypeBank.create(num_prototypes=8, feature_dim=16)

    def test_default_shapes(self):
        bank = PrototypeBank.create()
        assert bank.prototypes.shape == (128, 96)
        assert bank.w_key.shape == (96, 16)
        assert bank.w_query.shape == (96, 16)
        assert bank.inv_temperature == 0.5

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            tiny_bank(lam=-0.1)

    def test_nonfinite_rejected(self):
        bank = tiny_bank()
        protos = bank.prototypes.copy()
        protos[0, 0] = np.nan
        with pytest.raises(ValueError):
            PrototypeBank(protos, bank.w_key, bank.w_query)


class TestCoefficients:
    def test_single_prototype_is_one(self):
        bank = PrototypeBank(np.ones((1, 4)), np.zeros((4, 2)), np.zeros((4, 2)))
        a = bank.coefficients(np.array([[1.0, 2.0, 3.0, 4.0]]))
        np.testing.assert_array_equal(a, [[1.0]])

    def test_zero_key_gives_uniform(self):
        bank = tiny_bank()
        bank.w_key[:] = 0.0
        a = bank.coefficients(np.random.default_rng(0).normal(size=4)[None])
        np.testing.assert_allclose(a, np.full((1, 5), 0.2), atol=1e-15)

    def test_high_temperature_one_hot(self):
        rng = np.random.default_rng(1)
        bank = PrototypeBank.create(num_prototypes=6, feature_dim=4,
                                    attention_dim=3, inv_temperature=1e4, seed=2)
        x = rng.normal(size=4)[None]
        # brute-force softmax at high lambda against the winning logit
        logits = bank.logits(x)
        expect = np.zeros((1, 6))
        expect[0, np.argmax(logits)] = 1.0
        np.testing.assert_allclose(bank.coefficients(x), expect, atol=1e-6)

    def test_simplex_over_many_draws(self):
        rng = np.random.default_rng(3)
        bank = tiny_bank(k=12, d=6, seed=4)
        for _ in range(200):
            a = bank.coefficients(rng.normal(size=6)[None])
            assert (a >= 0.0).all()
            assert abs(a.sum() - 1.0) < 1e-6

    def test_logit_shift_invariance(self):
        logits = np.random.default_rng(5).normal(size=(10, 7))
        a = softmax(logits)
        b = softmax(logits + 123.456)
        assert np.abs(a - b).max() < 1e-9

    def test_rejects_nonfinite_input(self):
        bank = tiny_bank()
        with pytest.raises(ValueError):
            bank.coefficients(np.array([[np.inf, 0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_batches_only(self, shape):
        bank = tiny_bank()
        x = np.zeros(shape)
        for method in (bank.logits, bank.coefficients, bank.project):
            with pytest.raises(ValueError, match="batch"):
                method(x)


class TestProject:
    def test_single_prototype_returns_it(self):
        proto = np.array([[1.0, -2.0, 0.5, 3.0]])
        bank = PrototypeBank(proto, np.zeros((4, 2)), np.zeros((4, 2)))
        np.testing.assert_array_equal(bank.project(np.zeros((1, 4))), proto)

    def test_uniform_coefficients_give_mean(self):
        bank = tiny_bank()
        bank.w_key[:] = 0.0
        out = bank.project(np.random.default_rng(6).normal(size=4)[None])
        np.testing.assert_allclose(out, bank.prototypes.mean(axis=0, keepdims=True),
                                   atol=1e-12)

    def test_reconstruction_from_coefficients(self):
        rng = np.random.default_rng(7)
        bank = tiny_bank(k=9, d=5, seed=8)
        x = rng.normal(size=(20, 5))
        a = bank.coefficients(x)
        np.testing.assert_allclose(bank.project(x), a @ bank.prototypes, atol=1e-12)

    def test_centered_is_offset_by_centroid(self):
        rng = np.random.default_rng(15)
        bank = tiny_bank(k=9, d=5, seed=16)
        x = rng.normal(size=(20, 5))
        np.testing.assert_allclose(bank.project(x, centered=True),
                                   bank.coefficients(x) @ (bank.prototypes - bank.prototypes.mean(axis=0)),
                                   atol=1e-12)
        bank.w_key[:] = 0.0
        np.testing.assert_allclose(bank.project(x, centered=True), 0.0, atol=1e-12)

    def test_output_inside_hull_norm_bound(self):
        rng = np.random.default_rng(9)
        bank = tiny_bank(k=16, d=6, seed=10)
        max_norm = np.linalg.norm(bank.prototypes, axis=1).max()
        for _ in range(100):
            out = bank.project(rng.normal(size=6)[None] * 10.0)
            assert np.linalg.norm(out[0]) <= max_norm + 1e-9


class TestBackward:
    def test_requires_cache(self):
        bank = tiny_bank()
        with pytest.raises(RuntimeError):
            bank.backward(np.zeros(4))

    def test_upstream_must_match_the_batch(self):
        bank = tiny_bank()
        bank.project(np.zeros((1, 4)))
        with pytest.raises(ValueError, match="shape"):
            bank.backward(np.zeros(4))

    def test_zero_upstream(self):
        bank = tiny_bank()
        bank.project(np.random.default_rng(11).normal(size=(3, 4)))
        d_x, grads = bank.backward(np.zeros((3, 4)))
        assert np.all(d_x == 0.0)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_zero_temperature_freezes_attention(self):
        bank = tiny_bank(lam=0.0)
        rng = np.random.default_rng(12)
        bank.project(rng.normal(size=(2, 4)))
        _, grads = bank.backward(rng.normal(size=(2, 4)))
        assert np.all(grads["w_key"] == 0.0)
        assert np.all(grads["w_query"] == 0.0)

    def test_grads_keyed_and_shaped_like_parameters(self):
        bank = tiny_bank(k=7, d=4, d_a=2, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4))
        bank.project(x)
        d_x, grads = bank.backward(rng.normal(size=(5, 4)))
        assert d_x.shape == x.shape
        params = bank.parameters()
        assert set(grads) == set(params)
        for name, p in params.items():
            assert grads[name].shape == p.shape and grads[name].dtype == p.dtype, name

    def test_centered_readout_has_no_backward(self):
        # nothing trains through the centered readout, so it drops what an
        # uncentered call kept
        bank = tiny_bank()
        x = np.random.default_rng(5).normal(size=(3, 4))
        bank.project(x)
        bank.project(x, centered=True)
        with pytest.raises(RuntimeError, match="without a cached forward"):
            bank.backward(np.zeros((3, 4)))

    def test_matches_finite_differences(self):
        from scenehull.gradcheck import check_dcr

        for seed in range(5):
            for res in check_dcr(seed):
                assert res.passed, str(res)


class TestEntropyMonotonicity:
    def test_entropy_non_increasing_in_temperature(self):
        # same bank geometry, lambda swept over the ablation values
        rng = np.random.default_rng(13)
        base = tiny_bank(k=20, d=8, d_a=4, lam=1.0, seed=14)
        xs = rng.normal(size=(50, 8))
        lams = [0.1, 0.5, 1.0, 4.0]
        banks = [
            PrototypeBank(base.prototypes, base.w_key, base.w_query, lam)
            for lam in lams
        ]
        entropies = np.stack([coefficient_entropy(b.coefficients(xs)) for b in banks])
        diffs = np.diff(entropies, axis=0)
        assert (diffs <= 1e-12).all()


class TestParameters:
    def test_live_views(self):
        bank = tiny_bank()
        bank.parameters()["prototypes"][0, 0] = 42.0
        assert bank.prototypes[0, 0] == 42.0
