"""Versioned, atomic run checkpoints: npz arrays + embedded JSON manifest.

A checkpoint captures everything a filtering run needs to resume
*bit-identically* at a step boundary: the particle population, the step
counter, every PRNG's internal state, the healed-topology view (dead mask,
respawn lineage) and the run's resilience/telemetry counters. The file
format is a single ``.npz`` zip holding the arrays plus one extra member,
``manifest.json``, carrying the schema version, the writer's git SHA, a
SHA-256 content hash over the array members, and the backend-specific
metadata (``meta``).

Durability contract
-------------------
Writes are **atomic**: the checkpoint is staged to ``<path>.tmp.<pid>``,
fsynced, and ``os.replace``d over the target in one rename. A crash —
including SIGKILL — at any point before the rename leaves the previous
checkpoint untouched; a crash after the rename leaves the new one complete.
There is never a moment where ``<path>`` holds a partial file.

Integrity contract
------------------
``read_checkpoint`` verifies, in order: the zip container parses (truncation
⇒ :class:`~repro.resilience.errors.CheckpointCorruptError`), the manifest
exists and parses, the schema version is supported, and the recomputed
content hash over every array member matches the manifest (bit-flips ⇒
``CheckpointCorruptError`` — zip CRCs alone would miss flips in an entry's
local header). Corruption is always *detected*, never silently loaded.

The chaos hooks (:func:`corrupt_checkpoint_file`, the ``interrupt_write``
flag) exist so the fault-injection suite can prove both contracts against
real byte-level damage.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile

import numpy as np

from repro.resilience.errors import CheckpointCorruptError, CheckpointError

#: bump when the on-disk layout changes incompatibly.
#: v2 (width-aware allocation): adds the optional ``widths`` array, the
#: ``alloc_counters`` state entry and the ``alloc`` policy-state block.
#: v3 (execution-form dispatch): the config record gains the ``execution``
#: and ``dtype_policy`` fields, and the saved ``states``/``log_weights``
#: arrays carry the policy's dtypes (float32 under a float32 policy).
#: v4 (shard-aware topology): the multiprocess meta records the shard
#: ``assignment`` (sub-filter → worker), per-sub-filter RNG generation tags
#: (``filter_tags``) and per-sub-filter RNG states keyed by global filter
#: id, which is what lets a v4 checkpoint resume bit-identically under a
#: *different* worker/shard count.
CHECKPOINT_SCHEMA_VERSION = 4

#: schema versions this build can still read. v1 checkpoints are the
#: fixed-width layout: no ``widths`` array (every row fully live), no
#: allocation-policy state — both default cleanly on load. v2 predates the
#: execution/dtype-policy config fields, which default to the reference
#: forms and mixed dtypes via :func:`normalize_config_record`. Single-
#: process checkpoints of every version load; multiprocess ones of v1-v3
#: (and v4 ones written with the removed per-worker stream mode) store
#: per-worker RNG states and are rejected with a :class:`CheckpointError`.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4)

#: zip member carrying the JSON manifest (alongside the ``*.npy`` arrays).
MANIFEST_MEMBER = "manifest.json"

_FORMAT = "esthera-checkpoint"


def _git_sha() -> str | None:
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5, cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() if out.returncode == 0 else None
    except Exception:
        return None


def _content_hash(zf: zipfile.ZipFile) -> str:
    """SHA-256 over the array members (name + bytes, sorted by name)."""
    h = hashlib.sha256()
    for name in sorted(zf.namelist()):
        if name == MANIFEST_MEMBER:
            continue
        h.update(name.encode())
        h.update(zf.read(name))
    return h.hexdigest()


def write_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict,
                     *, interrupt_write: bool = False) -> dict | None:
    """Atomically write a checkpoint; returns the manifest written.

    Parameters
    ----------
    path:
        target checkpoint file. The previous file at this path (if any)
        survives until the final atomic rename.
    arrays:
        named arrays stored as npz members.
    meta:
        JSON-serializable backend metadata stored in the manifest under
        ``"meta"`` (step counter, config record, RNG states, ...).
    interrupt_write:
        chaos hook simulating SIGKILL mid-write: the staging file is left
        truncated and the rename never happens — the function returns
        ``None`` and the previous checkpoint at *path* is untouched. Used
        by the ``ckpt_partial_write`` fault.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    with zipfile.ZipFile(tmp) as zf:
        content_hash = _content_hash(zf)
    manifest = {
        "format": _FORMAT,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "content_hash": content_hash,
        "arrays": sorted(arrays),
        "meta": meta,
    }
    with zipfile.ZipFile(tmp, "a") as zf:
        zf.writestr(MANIFEST_MEMBER, json.dumps(manifest))
    if interrupt_write:
        # Simulated SIGKILL between staging and rename: leave a torn tmp
        # file behind and never touch the target.
        size = os.path.getsize(tmp)
        with open(tmp, "r+b") as fh:
            fh.truncate(max(size // 2, 1))
        return None
    with open(tmp, "rb") as fh:
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    # Persist the rename itself (directory entry) where the OS allows it.
    try:
        dfd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass
    return manifest


def read_manifest(path: str) -> dict:
    """The manifest alone (no array loading, no hash verification)."""
    try:
        with zipfile.ZipFile(path) as zf:
            if MANIFEST_MEMBER not in zf.namelist():
                raise CheckpointCorruptError(
                    f"checkpoint {path!r} has no {MANIFEST_MEMBER} member")
            raw = zf.read(MANIFEST_MEMBER)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path!r} does not exist") from None
    except (zipfile.BadZipFile, OSError, EOFError) as e:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is not a readable zip container: {e}") from e
    try:
        manifest = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} manifest is not valid JSON: {e}") from e
    if manifest.get("format") != _FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} has format {manifest.get('format')!r}, "
            f"expected {_FORMAT!r}")
    version = manifest.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path!r} has schema version {version}, this build "
            f"reads versions {SUPPORTED_SCHEMA_VERSIONS}")
    return manifest


def read_checkpoint(path: str, *, verify: bool = True
                    ) -> tuple[dict[str, np.ndarray], dict]:
    """Load ``(arrays, manifest)``, verifying integrity by default.

    Raises :class:`CheckpointError` for a missing file or unsupported
    schema, :class:`CheckpointCorruptError` for any byte-level damage.
    """
    manifest = read_manifest(path)
    try:
        with zipfile.ZipFile(path) as zf:
            if verify:
                actual = _content_hash(zf)
                expected = manifest.get("content_hash")
                if actual != expected:
                    raise CheckpointCorruptError(
                        f"checkpoint {path!r} content hash mismatch "
                        f"(expected {expected}, got {actual})")
            arrays: dict[str, np.ndarray] = {}
            for name in manifest.get("arrays", ()):
                member = f"{name}.npy"
                with zf.open(member) as fh:
                    arrays[name] = np.load(io.BytesIO(fh.read()),
                                           allow_pickle=False)
    except KeyError as e:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is missing an array member: {e}") from e
    except (zipfile.BadZipFile, OSError, EOFError, ValueError) as e:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} failed to load: {e}") from e
    return arrays, manifest


# ---------------------------------------------------------------------------
# Single-process filter checkpointing (vectorized filter, sequential oracle).
# ---------------------------------------------------------------------------


def save_filter_checkpoint(filt, path: str, backend: str) -> dict:
    """Checkpoint a single-process filter: population + RNG + step counter.

    The filter's whole future is determined by its
    :class:`~repro.engine.state.FilterState` and the internal state of its
    RNG, so capturing both at a step boundary makes the resumed run
    bit-identical to an uninterrupted one.
    """
    from repro.core.parameters import distributed_config_to_dict

    if filt.states is None:
        raise CheckpointError("cannot checkpoint before the filter initialized")
    arrays, state_meta = filt._state.to_checkpoint()
    meta = {
        "backend": backend,
        "boundary": True,
        "k": int(filt._state.k),
        "config": distributed_config_to_dict(filt.config),
        "rng": filt.rng.state_dict(),
        "state": state_meta,
    }
    alloc_policy = getattr(filt, "alloc_policy", None)
    if alloc_policy is not None and alloc_policy.name != "fixed":
        meta["alloc"] = {"policy": alloc_policy.name,
                         "state": alloc_policy.state_dict()}
    return write_checkpoint(path, arrays, meta)


def normalize_config_record(record: dict) -> dict:
    """A saved distributed-config dict, normalized for comparison.

    Round-tripping through the dataclass fills in fields introduced after
    the checkpoint was written (a schema-v1 record carries no allocation
    fields), so an old fixed-width checkpoint still compares equal to a
    config that only differs in the new defaults. The saved ``rng_streams``
    is dropped: ``"filter"`` is the only mode, single-process backends never
    read it, and the multiprocess loader rejects per-worker stream states
    on their own.
    """
    from repro.core.parameters import (
        distributed_config_from_dict,
        distributed_config_to_dict,
    )

    record = {k: v for k, v in record.items() if k != "rng_streams"}
    try:
        return distributed_config_to_dict(distributed_config_from_dict(record))
    except (TypeError, ValueError):
        return dict(record)


def load_filter_checkpoint(filt, path: str, backend: str) -> dict:
    """Restore a :func:`save_filter_checkpoint` snapshot into *filt*."""
    from repro.core.parameters import distributed_config_to_dict

    arrays, manifest = read_checkpoint(path)
    meta = manifest["meta"]
    if meta.get("backend") != backend:
        raise CheckpointError(
            f"checkpoint was written by backend {meta.get('backend')!r}, "
            f"not {backend!r}")
    saved_cfg = normalize_config_record(meta.get("config", {}))
    if saved_cfg != distributed_config_to_dict(filt.config):
        raise CheckpointError(
            "checkpoint configuration does not match this filter's configuration")
    filt._state.restore_checkpoint(arrays, meta["state"])
    filt.rng.load_state_dict(meta["rng"])
    alloc = meta.get("alloc")
    alloc_policy = getattr(filt, "alloc_policy", None)
    if alloc and alloc_policy is not None:
        if alloc.get("policy") != alloc_policy.name:
            raise CheckpointError(
                f"checkpoint allocation policy {alloc.get('policy')!r} does "
                f"not match this filter's {alloc_policy.name!r}")
        alloc_policy.load_state_dict(alloc.get("state", {}))
    return manifest


# ---------------------------------------------------------------------------
# Chaos hooks: byte-level damage for the fault-injection suite.
# ---------------------------------------------------------------------------


def corrupt_checkpoint_file(path: str, rng: np.random.Generator,
                            mode: str = "corrupt", fraction: float = 0.01) -> int:
    """Damage a written checkpoint in place; returns bytes affected.

    ``mode="corrupt"`` flips a seeded sample of bytes in the middle half of
    the file (where the array payloads live); ``mode="truncate"`` cuts the
    file to 60% of its length. Both must be *detected* by
    :func:`read_checkpoint` — that detection is what the chaos suite
    asserts.
    """
    size = os.path.getsize(path)
    if mode == "truncate":
        new_size = max(int(size * 0.6), 1)
        with open(path, "r+b") as fh:
            fh.truncate(new_size)
        return size - new_size
    if mode != "corrupt":
        raise ValueError(f"mode must be 'corrupt' or 'truncate', got {mode!r}")
    lo, hi = size // 4, max(size * 3 // 4, size // 4 + 1)
    n = max(1, int((hi - lo) * fraction))
    offsets = rng.choice(hi - lo, size=min(n, hi - lo), replace=False) + lo
    with open(path, "r+b") as fh:
        for off in sorted(int(o) for o in offsets):
            fh.seek(off)
            byte = fh.read(1)
            fh.seek(off)
            fh.write(bytes([byte[0] ^ 0xFF]))
    return len(offsets)
