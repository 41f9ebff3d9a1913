"""Stage-level checkpoints for selection runs (JSON on disk).

A checkpoint is written after every committed stage and captures
everything needed to continue the run in a fresh process:

* the **algorithm config** — class name plus constructor parameters, so
  :func:`algorithm_from_config` can rebuild the exact algorithm;
* the **graph fingerprint** — a SHA-256 over the compiled engine's
  structures, queries, and cost edges, so a checkpoint can never be
  replayed against a different (or differently-built) instance;
* the **stage records** — for each committed stage, its scope (which
  loop of the algorithm committed it), structure names, benefit, space,
  and τ after the commit;
* the **stage counter**, picked structure names/ids, and the space
  accounting (used and remaining against the budget).

Replay is deterministic: committing the recorded picks in order through
the :class:`~repro.core.benefit.BenefitEngine` reproduces the engine
state bitwise (the engine's maintained caches are exact), so a resumed
run continues to a selection bit-identical to an uninterrupted one.
The recorded benefits double as an integrity check during replay.

The format is versioned; see ``docs/API.md`` ("Selection runtime") for
the schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.io import write_json

CHECKPOINT_VERSION = 1
CHECKPOINT_KIND = "repro-selection-checkpoint"

PathLike = Union[str, Path]


class CheckpointError(ValueError):
    """A checkpoint is malformed or does not match the run it was fed to."""


@dataclass(frozen=True)
class StageRecord:
    """One committed stage as recorded in a checkpoint.

    ``scope`` names the loop that committed the stage (``"seed"``, the
    algorithm's stage loop, or ``"move"`` for local-search moves) so a
    composite algorithm like TwoStep replays each record in the loop
    that originally produced it.
    """

    scope: str
    structures: Tuple[str, ...]
    benefit: float
    space: float
    tau_after: float

    def to_dict(self) -> Dict:
        return {
            "scope": self.scope,
            "structures": list(self.structures),
            "benefit": self.benefit,
            "space": self.space,
            "tau_after": self.tau_after,
        }

    @staticmethod
    def from_dict(document: Dict) -> "StageRecord":
        try:
            return StageRecord(
                scope=str(document["scope"]),
                structures=tuple(document["structures"]),
                benefit=float(document["benefit"]),
                space=float(document["space"]),
                tau_after=float(document["tau_after"]),
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed stage record: {exc}") from exc


@dataclass
class Checkpoint:
    """A resumable snapshot of a selection run at a stage boundary."""

    algorithm: Dict
    fingerprint: str
    space_budget: float
    seed: Tuple[str, ...]
    stage_counter: int
    selected: Tuple[str, ...]
    selected_ids: Tuple[int, ...]
    space_used: float
    remaining_space: float
    stages: Tuple[StageRecord, ...]
    extra: Dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "kind": CHECKPOINT_KIND,
            "algorithm": self.algorithm,
            "fingerprint": self.fingerprint,
            "space_budget": self.space_budget,
            "seed": list(self.seed),
            "stage_counter": self.stage_counter,
            "selected": list(self.selected),
            "selected_ids": list(self.selected_ids),
            "space_used": self.space_used,
            "remaining_space": self.remaining_space,
            "stages": [record.to_dict() for record in self.stages],
            "extra": self.extra,
        }

    @staticmethod
    def from_dict(document: Dict) -> "Checkpoint":
        if not isinstance(document, dict):
            raise CheckpointError("checkpoint document must be a JSON object")
        kind = document.get("kind")
        if kind != CHECKPOINT_KIND:
            raise CheckpointError(
                f"not a selection checkpoint (kind={kind!r}, "
                f"expected {CHECKPOINT_KIND!r})"
            )
        version = document.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        try:
            return Checkpoint(
                algorithm=dict(document["algorithm"]),
                fingerprint=str(document["fingerprint"]),
                space_budget=float(document["space_budget"]),
                seed=tuple(document["seed"]),
                stage_counter=int(document["stage_counter"]),
                selected=tuple(document["selected"]),
                selected_ids=tuple(int(i) for i in document["selected_ids"]),
                space_used=float(document["space_used"]),
                remaining_space=float(document["remaining_space"]),
                stages=tuple(
                    StageRecord.from_dict(r) for r in document["stages"]
                ),
                extra=dict(document.get("extra", {})),
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def save_checkpoint(checkpoint: Checkpoint, path: PathLike) -> None:
    """Write a checkpoint atomically (:func:`repro.io.write_json`).

    A crash during the write leaves the previous checkpoint intact —
    the whole point of checkpointing is surviving exactly that.
    """
    write_json(checkpoint.to_dict(), path)


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read and validate a checkpoint file."""
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}")
    return Checkpoint.from_dict(document)


def algorithm_identity(config: Dict) -> Dict:
    """An algorithm config without the legacy ``workers`` and ``lazy``
    params.

    Older checkpoints carry constructor params no algorithm takes any
    more: ``workers`` (stage parallelism) and ``lazy`` (the switch to a
    full-rescan stage loop).  Neither ever changed a selection, so both
    are dropped wherever configs are compared or rebuilt, and those
    checkpoints stay resumable.
    """
    params = {
        key: value
        for key, value in dict(config.get("params", {})).items()
        if key not in ("workers", "lazy")
    }
    return {**config, "params": params}


def algorithm_from_config(config: Dict):
    """Rebuild a selection algorithm from a checkpoint's config block.

    The config is ``{"class": <name>, "params": {...constructor kwargs}}``
    as produced by each algorithm's ``config()`` method.
    """
    from repro import algorithms as _algorithms

    known = {
        "RGreedy",
        "HRUGreedy",
        "InnerLevelGreedy",
        "TwoStep",
        "LocalSearchRefiner",
        "PickBySmallest",
        "MaintenanceAwareGreedy",
    }
    cls_name = config.get("class")
    if cls_name not in known:
        raise CheckpointError(
            f"checkpoint names unknown algorithm class {cls_name!r} "
            f"(known: {sorted(known)})"
        )
    cls = getattr(_algorithms, cls_name)
    if not isinstance(config.get("params", {}), dict):
        raise CheckpointError("algorithm params must be an object")
    params = algorithm_identity(config)["params"]
    try:
        return cls(**params)
    except TypeError as exc:
        raise CheckpointError(
            f"cannot rebuild {cls_name} from checkpoint params {params!r}: {exc}"
        ) from exc


def records_picked_order(records: Sequence[StageRecord]) -> Tuple[str, ...]:
    """Concatenated structure names of replayable records, in pick order.

    Local-search ``"move"`` records hold human-readable move labels, not
    structure names, so they are excluded — algorithms that record moves
    pass their selection to the checkpoint explicitly.
    """
    return tuple(
        name
        for record in records
        if record.scope != "move"
        for name in record.structures
    )


def make_checkpoint(
    engine,
    *,
    algorithm: Dict,
    space_budget: float,
    seed: Sequence[str],
    stage_counter: int,
    records: Sequence[StageRecord],
    selected: Optional[Sequence[str]] = None,
    extra: Optional[Dict] = None,
    space_used: Optional[float] = None,
) -> Checkpoint:
    """Assemble a checkpoint from engine state plus the recorded stages.

    ``space_used`` lets a caller pin the boundary-time value when the
    checkpoint is materialized lazily (the engine may have advanced by
    then; everything else here — name→id mapping, fingerprint — is
    static).
    """
    if selected is None:
        selected = records_picked_order(records)
    selected = tuple(selected)
    if space_used is None:
        space_used = float(engine.space_used())
    return Checkpoint(
        algorithm=dict(algorithm),
        fingerprint=engine.fingerprint(),
        space_budget=float(space_budget),
        seed=tuple(seed),
        stage_counter=int(stage_counter),
        selected=selected,
        selected_ids=tuple(engine.structure_id(name) for name in selected),
        space_used=space_used,
        remaining_space=float(space_budget) - space_used,
        stages=tuple(records),
        extra=dict(extra or {}),
    )
