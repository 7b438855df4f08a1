"""Trajectory-tree preference mining: build prefix-merged trees from agent
trajectories, score nodes by subtree success rate, extract critical action
pairs, and emit masked-SFT / DPO datasets.

Importing the package loads none of its modules: each public name, and
each submodule as an attribute (`trajtree.synth`), is imported on first
access (PEP 562), so a program that never touches, say, the losses or
the synthetic generator does not pay for them.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it defines
_MODULES = {
    "emit": ("DpoExample", "MaskedSegment", "SftExample", "emit_dpo", "emit_sft", "emit_stats"),
    "errors": ("ConfigError", "InputError", "InvariantError", "TrajtreeError"),
    "ingest": (
        "IngestReport", "deduplicate", "filter_loops", "filter_outliers", "group_by_instance",
        "ingest_trajectories",
    ),
    "losses": (
        "DpoGrad", "DpoInputs", "TrajectoryLogProbs", "dpo_loss", "dpo_loss_grad", "sft_loss",
    ),
    "model": (
        "CanonConfig", "Step", "Trajectory", "canonicalize_action", "parse_trajectory_stream",
        "serialize_trajectory",
    ),
    "pipeline": ("SynthConfig",),
    "scoring": (
        "CriticalPair", "NodeScore", "Segment", "extract_critical_pairs",
        "identify_critical_actions", "score_nodes",
    ),
    "synth": ("brute_force_pairs", "brute_force_scores", "generate"),
    "tree": ("TrajTree", "TreeNode", "build_tree", "enumerate_paths"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


# every submodule, so `trajtree.synth` works without importing it first
_SUBMODULES = ("cli", *_MODULES)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        if name in _SUBMODULES:
            return importlib.import_module(f".{name}", __name__)  # binds the attribute
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
