"""Pure numeric reference losses for downstream trainers.

Masked SFT loss over action log-probs and the DPO objective
-log sigmoid(beta * margin difference), with analytic gradients.
Inputs are sequence-level log-likelihoods; nothing here tokenizes or
touches a model.

`loss_result` holds the rules of a `trajtree loss` record; of the
commands, only `loss` imports this module.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .errors import ConfigError, InputError

SUM = "sum"
MEAN = "mean"


class TrajectoryLogProbs(NamedTuple):
    action_logps: tuple[float, ...]
    # carried for schema completeness; must never influence a loss
    observation_logps: tuple[float, ...] = ()


class DpoInputs(NamedTuple):
    policy_chosen: float
    policy_rejected: float
    ref_chosen: float
    ref_rejected: float
    beta: float


class DpoGrad(NamedTuple):
    policy_chosen: float
    policy_rejected: float
    ref_chosen: float
    ref_rejected: float


def _validate_dpo(x: DpoInputs) -> None:
    if not x.beta > 0:
        raise ConfigError(f"beta must be positive, got {x.beta}")
    for name in ("policy_chosen", "policy_rejected", "ref_chosen", "ref_rejected"):
        if not math.isfinite(getattr(x, name)):
            raise InputError(f"{name} is not finite")


def sft_loss(lp: TrajectoryLogProbs, reduction: str = SUM) -> float:
    """Negative log-likelihood of the actions; observations are masked out entirely."""
    if reduction not in (SUM, MEAN):
        raise ConfigError(f"unknown reduction {reduction!r}")
    if not lp.action_logps:
        raise InputError("action_logps is empty")
    for v in lp.action_logps:
        if not math.isfinite(v):
            raise InputError(f"action log-prob {v} is not finite")
        if v > 0:
            raise InputError(f"action log-prob {v} is positive")
    total = -math.fsum(lp.action_logps)
    return total / len(lp.action_logps) if reduction == MEAN else total


def _delta(x: DpoInputs) -> float:
    delta = x.beta * ((x.policy_chosen - x.ref_chosen) - (x.policy_rejected - x.ref_rejected))
    # finite inputs can still overflow; an infinite margin would give a loss
    # of inf (not valid JSON) or a silent 0.0 with zero gradients
    if not math.isfinite(delta):
        raise InputError(f"DPO margin is not finite: {delta}")
    return delta


def _neg_log_sigmoid(z: float) -> float:
    # -log sigmoid(z) = softplus(-z), evaluated without overflow
    if z >= 0:
        return math.log1p(math.exp(-z))
    return -z + math.log1p(math.exp(z))


def dpo_loss(x: DpoInputs) -> float:
    """-log sigmoid of beta times the policy-vs-reference margin difference."""
    _validate_dpo(x)
    return _neg_log_sigmoid(_delta(x))


def dpo_loss_grad(x: DpoInputs) -> DpoGrad:
    """Partial derivatives of dpo_loss w.r.t. the four log-likelihoods."""
    _validate_dpo(x)
    delta = _delta(x)
    # sigma(-delta) computed stably on both tails
    if delta >= 0:
        sig_neg = math.exp(-delta) / (1.0 + math.exp(-delta))
    else:
        sig_neg = 1.0 / (1.0 + math.exp(delta))
    g = -x.beta * sig_neg
    return DpoGrad(policy_chosen=g, policy_rejected=-g, ref_chosen=-g, ref_rejected=g)


def _number(value: Any, name: str, index: int | None = None) -> int | float:
    # json decodes a number to exactly int or float, and true to bool (an int
    # subclass); float() would also take true and " 1e1 "
    if type(value) not in (int, float):
        label = name if index is None else f"{name}[{index}]"
        raise InputError(f"{label} must be a JSON number, got {value!r}")
    return value


def _numbers(value: Any, name: str) -> tuple[int | float, ...]:
    if not isinstance(value, list):
        raise InputError(f"{name} must be a JSON array, got {value!r}")
    return tuple(_number(v, name, i) for i, v in enumerate(value))


def loss_result(obj: Any, reduction: str) -> dict[str, Any]:
    """One decoded loss record's result: an sft record's loss under its own
    reduction or `reduction`, or a dpo record's loss and gradient. Every
    log-prob and beta must be a JSON number; every error reads as InputError."""
    try:
        if not isinstance(obj, dict):
            raise InputError("loss record is not an object")
        kind = obj.get("kind")
        if kind == "sft":
            lp = TrajectoryLogProbs(
                action_logps=_numbers(obj["action_logps"], "action_logps"),
                observation_logps=_numbers(obj.get("observation_logps", []), "observation_logps"),
            )
            return {"kind": "sft", "loss": sft_loss(lp, reduction=obj.get("reduction", reduction))}
        if kind == "dpo":
            x = DpoInputs(**{name: float(_number(obj[name], name)) for name in DpoInputs._fields})
            return {"kind": "dpo", "loss": dpo_loss(x), "grad": dpo_loss_grad(x)._asdict()}
        raise InputError(f"loss record kind must be 'sft' or 'dpo', got {kind!r}")
    except KeyError as exc:  # only a record's own fields are looked up
        raise InputError(f"missing field {exc.args[0]!r}") from exc
    # ConfigError: the record's own beta or reduction is invalid
    except (ConfigError, TypeError, OverflowError) as exc:
        raise InputError(str(exc)) from exc
