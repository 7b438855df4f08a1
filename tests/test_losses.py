import math
import random

import mpmath
import pytest
from hypothesis import given, strategies as st

from trajtree.errors import ConfigError, InputError
from trajtree.losses import (
    DpoInputs,
    TrajectoryLogProbs,
    dpo_loss,
    dpo_loss_grad,
    sft_loss,
)

finite_logps = st.floats(min_value=-50, max_value=0, allow_nan=False)


def make_dpo(pc, pr, rc, rr, beta=0.1):
    return DpoInputs(
        policy_chosen=pc, policy_rejected=pr, ref_chosen=rc, ref_rejected=rr, beta=beta
    )


class TestSftLoss:
    def test_probability_one_actions(self):
        assert sft_loss(TrajectoryLogProbs((0.0, 0.0))) == 0.0

    def test_sum(self):
        assert sft_loss(TrajectoryLogProbs((-0.5, -1.5))) == 2.0

    def test_mean(self):
        assert sft_loss(TrajectoryLogProbs((-0.5, -1.5)), reduction="mean") == 1.0

    def test_observations_ignored_exactly(self):
        base = sft_loss(TrajectoryLogProbs((-0.5, -1.5)))
        for obs in ((), (-3.0,), (100.0, -100.0), (float("-inf"),)):
            assert sft_loss(TrajectoryLogProbs((-0.5, -1.5), obs)) == base

    def test_positive_logp_rejected(self):
        with pytest.raises(InputError):
            sft_loss(TrajectoryLogProbs((0.1,)))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            sft_loss(TrajectoryLogProbs(()))

    def test_nonfinite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputError):
                sft_loss(TrajectoryLogProbs((-1.0, bad)))

    def test_bad_reduction(self):
        with pytest.raises(ConfigError):
            sft_loss(TrajectoryLogProbs((-1.0,)), reduction="max")

    @given(st.lists(finite_logps, min_size=1, max_size=20))
    def test_nonnegative_and_exact(self, lps):
        loss = sft_loss(TrajectoryLogProbs(tuple(lps)))
        assert loss >= 0
        assert loss == -math.fsum(lps)
        assert (loss == 0) == all(v == 0 for v in lps)


class TestDpoLoss:
    def test_policy_equals_ref_is_ln2(self):
        for beta in (0.01, 0.1, 1.0, 5.0):
            x = make_dpo(-2.0, -3.0, -2.0, -3.0, beta=beta)
            assert abs(dpo_loss(x) - math.log(2)) < 1e-12

    def test_worked_example(self):
        # margins: chosen +0.5, rejected -1.0; delta = 0.1 * 1.5 = 0.15
        x = make_dpo(-2.0, -3.0, -2.5, -2.0, beta=0.1)
        with mpmath.workdps(50):
            expected = -mpmath.log(mpmath.sigmoid(mpmath.mpf("0.15")))
        assert abs(dpo_loss(x) - float(expected)) < 1e-12
        assert abs(dpo_loss(x) - 0.62095) < 1e-4

    def test_large_positive_delta_goes_to_zero(self):
        x = make_dpo(700.0, 0.0, 0.0, 0.0, beta=1.0)
        loss = dpo_loss(x)
        assert math.isfinite(loss) and 0 <= loss < 1e-300

    def test_large_negative_delta_asymptote(self):
        x = make_dpo(-700.0, 0.0, 0.0, 0.0, beta=1.0)
        loss = dpo_loss(x)
        assert math.isfinite(loss)
        assert abs(loss - 700.0) < 1e-9  # -ln sigmoid(d) -> -d as d -> -inf

    def test_beta_must_be_positive(self):
        with pytest.raises(ConfigError):
            dpo_loss(make_dpo(0, 0, 0, 0, beta=0.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            dpo_loss(make_dpo(float("nan"), 0, 0, 0))

    def test_overflowing_margin_rejected(self):
        for sign in (1, -1):
            x = make_dpo(-sign * 1e308, sign * 1e308, sign * 1e308, -sign * 1e308, beta=1.0)
            for f in (dpo_loss, dpo_loss_grad):
                with pytest.raises(InputError):
                    f(x)

    @given(
        finite_logps, finite_logps, finite_logps, finite_logps,
        st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_shift_invariance(self, pc, pr, rc, rr, beta):
        a = dpo_loss(make_dpo(pc, pr, rc, rr, beta))
        b = dpo_loss(make_dpo(pc + 7.5, pr + 7.5, rc + 7.5, rr + 7.5, beta))
        assert abs(a - b) < 1e-9

    def test_monotone_in_policy_margin(self):
        losses = [
            dpo_loss(make_dpo(pc, -3.0, -2.0, -3.0, beta=0.5))
            for pc in (-4.0, -3.0, -2.0, -1.0)
        ]
        assert losses == sorted(losses, reverse=True)
        assert len(set(losses)) == len(losses)

    def test_monotone_in_ref_margin(self):
        losses = [
            dpo_loss(make_dpo(-2.0, -3.0, rc, -3.0, beta=0.5))
            for rc in (-4.0, -3.0, -2.0, -1.0)
        ]
        assert losses == sorted(losses)
        assert len(set(losses)) == len(losses)


def finite_difference(x: DpoInputs, field: str, h: float = 1e-6) -> float:
    up = dpo_loss(x._replace(**{field: getattr(x, field) + h}))
    down = dpo_loss(x._replace(**{field: getattr(x, field) - h}))
    return (up - down) / (2 * h)


class TestDpoGrad:
    def test_zero_delta_gradient(self):
        grad = dpo_loss_grad(make_dpo(0, 0, 0, 0, beta=0.1))
        assert grad.policy_chosen == pytest.approx(-0.05, abs=1e-15)

    def test_structure(self):
        grad = dpo_loss_grad(make_dpo(-1.0, -2.0, -0.5, -3.0, beta=0.7))
        assert grad.policy_chosen == -grad.policy_rejected
        assert grad.policy_chosen == -grad.ref_chosen
        assert grad.policy_chosen == grad.ref_rejected

    def test_matches_finite_differences(self):
        rng = random.Random(1234)
        for _ in range(200):
            x = make_dpo(
                *(rng.uniform(-50, 0) for _ in range(4)), beta=rng.uniform(1e-3, 5.0)
            )
            grad = dpo_loss_grad(x)
            for field in ("policy_chosen", "policy_rejected", "ref_chosen", "ref_rejected"):
                assert abs(getattr(grad, field) - finite_difference(x, field)) < 1e-6

    def test_finite_at_extreme_delta(self):
        for sign in (1, -1):
            grad = dpo_loss_grad(make_dpo(sign * 700.0, 0, 0, 0, beta=1.0))
            assert all(
                math.isfinite(v)
                for v in (grad.policy_chosen, grad.policy_rejected, grad.ref_chosen,
                          grad.ref_rejected)
            )
