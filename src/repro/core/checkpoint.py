"""Checkpoint/resume for long Harpocrates campaigns.

The paper's production runs are long-lived — up to thousands of
generations at 96-way parallelism (§VI-B1).  A run that dies at
iteration 49 of 50 must not lose everything, so the loop serializes its
complete resumable state after each iteration:

* the **population** as program records: each program's machine code
  (:mod:`repro.isa.encoding`, the bytes that would ship to the
  hardware) plus its wrapper parameters and genome, so restoration
  decodes instead of re-synthesizing and is bit-exact by construction,
* the **RNG state** of the loop's ``random.Random``,
* the **history** of :class:`~repro.core.loop.IterationStats`,
* the current **elite** with its fitnesses, the convergence
  book-keeping, and the accumulated :class:`~repro.core.evaluator.
  EvalHealth` telemetry.

Everything is plain JSON: checkpoints stay inspectable, diffable, and
robust to unpickling hazards.  ``HarpocratesLoop.run(resume_from=...)``
restores mid-campaign and provably reproduces the uninterrupted run's
elite and fitness curve for the same seed.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import CheckpointCorruptError, CheckpointError
from repro.core.evaluator import EvaluatedProgram, EvalHealth
from repro.isa import encoding
from repro.isa.isa_x64 import x64
from repro.isa.program import Program
from repro.util.statefile import payload_checksum, quarantine_file

logger = logging.getLogger("repro.checkpoint")

#: Bump when the on-disk schema changes incompatibly.
CHECKPOINT_VERSION = 2

#: File-name template for per-iteration checkpoints within a directory.
CHECKPOINT_NAME = "checkpoint_{iteration:06d}.json"

#: Sidecar file holding the serialized evaluation cache (see
#: :mod:`repro.core.evalcache`).  Deliberately does *not* match the
#: ``checkpoint_*.json`` pattern, so :func:`compact_checkpoints`
#: rotation never deletes it.
EVALCACHE_NAME = "evalcache.json"


def _decode_state_bytes(data: bytes) -> str:
    """Decode raw state-file bytes, classifying binary garbage.

    A checkpoint is UTF-8 JSON by construction; bytes that don't
    decode mean the file was overwritten or bit-rotted, which is
    corruption, not an I/O error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(
            f"not valid UTF-8 (binary garbage): {exc}"
        ) from exc


def verify_payload_checksum(payload: Dict[str, object], what: str) -> None:
    """Raise :class:`CheckpointCorruptError` on a checksum mismatch.

    Payloads written before checksums existed (no ``checksum`` field)
    pass — they simply don't carry the extra protection.
    """
    recorded = payload.get("checksum")
    if recorded is None:
        return
    actual = payload_checksum(payload)
    if recorded != actual:
        raise CheckpointCorruptError(
            f"{what} checksum mismatch: file says {recorded!r}, "
            f"content hashes to {actual!r} — torn write or on-disk "
            f"corruption"
        )


def evalcache_path(path: str) -> str:
    """The evaluation-cache sidecar path for a checkpoint location.

    ``path`` may be the checkpoint directory itself or any checkpoint
    file inside it — either way the sidecar lives alongside the
    per-iteration checkpoints."""
    if os.path.isdir(path):
        return os.path.join(path, EVALCACHE_NAME)
    return os.path.join(os.path.dirname(path) or ".", EVALCACHE_NAME)


# -- program records ---------------------------------------------------------


def encode_program(program: Program) -> Dict[str, object]:
    """The JSON record of one program: the one program codec.

    ``code`` is the base64 of the program's machine code.  ``genome``
    (the synthesized definition sequence the mutator rewrites) is kept
    only when the synthesizer recorded one, as a single space-joined
    string: an indented JSON list of thousands of names is slow to
    dump.  Other ``metadata`` never affects execution and is dropped.
    Raises :class:`ValueError` for an operand its field cannot hold.
    """
    code = encoding.encode_program(list(program.instructions))
    record: Dict[str, object] = {
        "name": program.name,
        "init_seed": program.init_seed,
        "data_size": program.data_size,
        "source": program.source,
        "code": base64.b64encode(code).decode("ascii"),
    }
    genome = program.metadata.get("genome")
    if genome is not None:
        record["genome"] = " ".join(genome)
    return record


def decode_program(record: Dict[str, object]) -> Program:
    """Rebuild the program :func:`encode_program` recorded.

    Raises :class:`CheckpointError` naming the record when it does not
    decode (missing field, bad base64, malformed machine code)."""
    try:
        code = base64.b64decode(record["code"], validate=True)
        program = Program(
            instructions=tuple(encoding.decode_program(x64(), code)),
            name=str(record["name"]),
            init_seed=int(record["init_seed"]),
            data_size=int(record["data_size"]),
            source=str(record["source"]),
        )
        genome = record.get("genome")
        if genome is not None:
            program.metadata["genome"] = tuple(genome.split())
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        name = record.get("name") if isinstance(record, dict) else None
        raise CheckpointError(
            f"program record {name!r} does not decode: {exc}"
        ) from exc
    return program


def encode_evaluated(entry: EvaluatedProgram) -> Dict[str, object]:
    return {
        "program": encode_program(entry.program),
        "fitness": entry.fitness,
        "total_cycles": entry.total_cycles,
        "crashed": entry.crashed,
        "error_kind": entry.error_kind,
        "attempts": entry.attempts,
    }


def decode_evaluated(record: Dict[str, object]) -> EvaluatedProgram:
    return EvaluatedProgram(
        program=decode_program(record["program"]),
        fitness=float(record["fitness"]),
        total_cycles=int(record["total_cycles"]),
        crashed=bool(record["crashed"]),
        error_kind=record.get("error_kind"),
        attempts=int(record.get("attempts", 1)),
    )


# -- RNG state ---------------------------------------------------------------


def encode_rng_state(state: Tuple) -> List[object]:
    """``random.Random.getstate()`` → JSON-safe list."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data: List[object]) -> Tuple:
    if not isinstance(data, (list, tuple)) or len(data) != 3:
        raise CheckpointError("malformed RNG state in checkpoint")
    version, internal, gauss_next = data
    return (int(version), tuple(int(word) for word in internal), gauss_next)


# -- the checkpoint itself ---------------------------------------------------


@dataclass
class LoopCheckpoint:
    """Complete resumable state of a loop run after ``iteration``
    completed iterations."""

    iteration: int
    population: List[Dict[str, object]]
    rng_state: List[object]
    history: List[Dict[str, object]] = field(default_factory=list)
    best: List[Dict[str, object]] = field(default_factory=list)
    best_so_far: float = float("-inf")
    stale: int = 0
    health: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    converged_at: Optional[int] = None
    version: int = CHECKPOINT_VERSION

    def to_json(self) -> str:
        payload = asdict(self)
        # JSON has no -inf literal; encode as None.
        if payload["best_so_far"] == float("-inf"):
            payload["best_so_far"] = None
        # Embedded content checksum: a torn or truncated write is
        # detected on load and quarantined instead of resumed from.
        payload["checksum"] = payload_checksum(payload)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LoopCheckpoint":
        if not text.strip():
            raise CheckpointCorruptError(
                "checkpoint file is empty (torn write)"
            )
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptError(
                f"unreadable checkpoint: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise CheckpointCorruptError("checkpoint is not a JSON object")
        verify_payload_checksum(payload, "checkpoint")
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        for key in ("iteration", "population", "rng_state"):
            if key not in payload:
                raise CheckpointCorruptError(
                    f"checkpoint missing field {key!r}"
                )
        best_so_far = payload.get("best_so_far")
        return cls(
            iteration=int(payload["iteration"]),
            population=list(payload["population"]),
            rng_state=list(payload["rng_state"]),
            history=list(payload.get("history", [])),
            best=list(payload.get("best", [])),
            best_so_far=(
                float("-inf") if best_so_far is None else float(best_so_far)
            ),
            stale=int(payload.get("stale", 0)),
            health=dict(payload.get("health", {})),
            seed=int(payload.get("seed", 0)),
            converged_at=payload.get("converged_at"),
            version=int(version),
        )

    # -- persistence -------------------------------------------------------

    def save(self, directory: str) -> str:
        """Atomically write this checkpoint into ``directory``.

        Returns the file path.  A temp-file + ``os.replace`` dance
        guarantees a reader never observes a torn checkpoint, even if
        the campaign is killed mid-write."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, CHECKPOINT_NAME.format(iteration=self.iteration)
        )
        handle, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".checkpoint_", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(self.to_json())
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str) -> "LoopCheckpoint":
        """Read a checkpoint from a file, or the newest *valid* one in
        a directory.

        Directory loads degrade gracefully: a torn, truncated, or
        garbage newest checkpoint is quarantined (renamed
        ``*.corrupt``, reported with a warning) and the next-newest
        valid checkpoint is used instead — resume from a damaged
        directory loses at most the iterations after the last good
        write, never the campaign.  Loading an explicit *file* path
        still fails loudly (after quarantining the damage), since the
        caller asked for exactly that state.
        """
        if os.path.isdir(path):
            return cls.load_latest_valid(path)
        try:
            with open(path, "rb") as stream:
                data = stream.read()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path!r}: {exc}"
            ) from exc
        try:
            return cls.from_json(_decode_state_bytes(data))
        except CheckpointCorruptError as exc:
            quarantined = quarantine_file(path)
            logger.warning(
                "checkpoint %s is corrupt (%s)%s",
                path, exc,
                f"; quarantined as {quarantined}" if quarantined else "",
            )
            raise

    @classmethod
    def load_latest_valid(cls, directory: str) -> "LoopCheckpoint":
        """Newest valid checkpoint in ``directory``, quarantining any
        damaged newer ones along the way."""
        try:
            names = os.listdir(directory)
        except OSError as exc:
            raise CheckpointError(
                f"cannot list checkpoint directory {directory!r}: {exc}"
            ) from exc
        numbered = sorted(
            (iteration, name)
            for name in names
            if (iteration := checkpoint_iteration(name)) is not None
        )
        if not numbered:
            raise CheckpointError(
                f"no checkpoints found in directory {directory!r}"
            )
        for _iteration, name in reversed(numbered):
            path = os.path.join(directory, name)
            try:
                with open(path, "rb") as stream:
                    data = stream.read()
            except OSError as exc:
                logger.warning(
                    "skipping unreadable checkpoint %s: %s", path, exc
                )
                continue
            try:
                return cls.from_json(_decode_state_bytes(data))
            except CheckpointCorruptError as exc:
                quarantined = quarantine_file(path)
                logger.warning(
                    "checkpoint %s is corrupt (%s)%s; falling back to "
                    "the previous checkpoint",
                    path, exc,
                    f"; quarantined as {quarantined}"
                    if quarantined else "",
                )
            except CheckpointError as exc:
                # Honest incompatibility (e.g. schema version): not
                # corruption, so leave the file alone but keep looking.
                logger.warning(
                    "skipping incompatible checkpoint %s: %s", path, exc
                )
        raise CheckpointError(
            f"no valid checkpoint in directory {directory!r} "
            f"(all candidates were corrupt or incompatible)"
        )

    def restore_health(self) -> EvalHealth:
        return EvalHealth.from_dict(self.health)


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the highest-iteration checkpoint in ``directory``
    (None when there is none).

    Zero-byte files (torn writes) and files whose names don't parse as
    per-iteration checkpoints are skipped, never selected.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    best: Optional[Tuple[int, str]] = None
    for name in names:
        iteration = checkpoint_iteration(name)
        if iteration is None:
            continue
        path = os.path.join(directory, name)
        try:
            if os.path.getsize(path) == 0:
                logger.warning(
                    "ignoring zero-byte checkpoint %s (torn write)",
                    path,
                )
                continue
        except OSError:
            continue
        if best is None or iteration > best[0]:
            best = (iteration, name)
    if best is None:
        return None
    return os.path.join(directory, best[1])


# -- compaction/rotation -----------------------------------------------------


def checkpoint_iteration(name: str) -> Optional[int]:
    """The iteration number encoded in a checkpoint file name
    (None for files that are not per-iteration checkpoints)."""
    if not (name.startswith("checkpoint_") and name.endswith(".json")):
        return None
    stem = name[len("checkpoint_"):-len(".json")]
    if not stem.isdigit():
        return None
    return int(stem)


def compact_checkpoints(
    directory: str, keep: int = 5, milestone_every: int = 0
) -> List[str]:
    """Rotate old checkpoints so multi-thousand-iteration campaigns
    don't accumulate one JSON file per iteration.

    Keeps the ``keep`` highest-iteration checkpoints plus, when
    ``milestone_every > 0``, every checkpoint whose iteration is a
    multiple of it (coarse long-term history for post-mortems).
    ``keep <= 0`` disables rotation entirely.  Deletion failures are
    ignored — compaction is best-effort housekeeping and must never
    take down a campaign.  Returns the paths actually removed.
    """
    if keep <= 0:
        return []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    numbered = []
    for name in sorted(names):
        iteration = checkpoint_iteration(name)
        if iteration is None:
            continue  # foreign file or unparseable name: untouched
        path = os.path.join(directory, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        if size == 0:
            # A torn write must never occupy a "newest keep" slot and
            # rotate a good checkpoint away; quarantine it instead.
            quarantined = quarantine_file(path)
            logger.warning(
                "zero-byte checkpoint %s (torn write)%s",
                path,
                f" quarantined as {quarantined}" if quarantined else "",
            )
            continue
        numbered.append((iteration, name))
    numbered.sort()
    newest = {name for _, name in numbered[-keep:]}
    removed = []
    for iteration, name in numbered[:-keep]:
        if milestone_every > 0 and iteration % milestone_every == 0:
            continue
        if name in newest:
            continue
        path = os.path.join(directory, name)
        try:
            os.unlink(path)
        except OSError:
            continue
        removed.append(path)
    return removed
