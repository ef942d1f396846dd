"""Stage checkpointing (MetaHipMer2's ``--checkpoint`` behaviour).

MHM2 writes intermediate outputs per stage so a crashed or re-configured
run can resume without redoing the expensive prefix.  We checkpoint the
contig-generation output (the costly de Bruijn prefix: merge -> k-mer
analysis -> contig generation); alignment onward depends on tunables that
change more often and is recomputed.

A checkpoint is only valid for the exact same reads and the same upstream
parameters, enforced with a BLAKE2 digest over the packed read arrays and
the relevant config fields — a stale checkpoint is ignored, never
half-used.  The digest is domain-separated: every field is hashed as
``(tag, length, payload)`` so two different ``(reads, config)`` pairs can
never produce the same byte stream by shifting bytes between fields.

Crash safety is part of the contract — the job service resumes killed
runs from whatever the previous process left on disk:

* :func:`save_contigs_checkpoint` writes both files to temporaries and
  publishes them with :func:`os.replace`, data first, meta last.  A crash
  at any point leaves either the previous consistent pair or a new data
  file beside the *old* meta — never a valid-key meta pointing at a torn
  archive.  The key is additionally embedded *inside* the archive, so a
  mixed pair (new data, old meta) is detected as a key mismatch and
  recomputed instead of resuming with the wrong contigs.
* :func:`load_contigs_checkpoint` treats any unreadable, truncated or
  internally inconsistent checkpoint exactly like a missing one: it logs
  and returns ``None`` so the caller recomputes, instead of letting
  ``zipfile.BadZipFile`` or friends kill the run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import uuid
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.sequence.contigs import ContigSet
from repro.sequence.read import ReadBatch

if TYPE_CHECKING:
    from repro.pipeline.pipeline import PipelineConfig

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "checkpoint_key",
    "save_contigs_checkpoint",
    "load_contigs_checkpoint",
]

_FILENAME = "contigs_checkpoint.npz"
_META = "contigs_checkpoint.json"

#: Bumped whenever the key derivation or the on-disk layout changes, and
#: mixed into every digest — checkpoints written by an older scheme can
#: never match a key computed by a newer one.
CHECKPOINT_FORMAT_VERSION = 2

_LOG = logging.getLogger("repro.pipeline.checkpoint")

#: errors a half-written or corrupted checkpoint can surface as; anything
#: in this set means "no usable checkpoint", not "crash the run".
_CORRUPT_ERRORS = (
    OSError,
    EOFError,
    KeyError,
    IndexError,
    TypeError,
    ValueError,  # includes json.JSONDecodeError and np.load pickle errors
    zipfile.BadZipFile,
)


def _update_field(h, tag: bytes, payload: bytes) -> None:
    """Hash one field as (tag, length, payload) — unambiguous framing."""
    h.update(len(tag).to_bytes(2, "little"))
    h.update(tag)
    h.update(len(payload).to_bytes(8, "little"))
    h.update(payload)


def checkpoint_key(reads: ReadBatch, config: "PipelineConfig") -> str:
    """Digest identifying (format version, reads, upstream parameters)."""
    h = hashlib.blake2b(digest_size=16)
    _update_field(
        h, b"version", str(CHECKPOINT_FORMAT_VERSION).encode("ascii")
    )
    _update_field(h, b"bases", reads.bases.tobytes())
    _update_field(h, b"offsets", reads.offsets.tobytes())
    _update_field(h, b"quals", reads.quals.tobytes())
    upstream = {
        "k_series": list(config.k_series),
        "min_kmer_count": config.min_kmer_count,
        "min_depth": config.min_depth,
        "min_kmer_qual": config.min_kmer_qual,
        "min_contig_len": config.min_contig_len,
    }
    _update_field(h, b"config", json.dumps(upstream, sort_keys=True).encode())
    return h.hexdigest()


def _replace_into(tmp: Path, final: Path) -> None:
    """Atomically publish *tmp* as *final*, cleaning up on failure."""
    try:
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_contigs_checkpoint(
    directory: str | Path, contigs: ContigSet, key: str, n_distinct_kmers: int
) -> None:
    """Write the contig-generation checkpoint atomically (data, then meta).

    Both files go to temporaries first and are published with
    ``os.replace``; the meta (which holds the validity key) is published
    last, so no observable state pairs a matching key with a torn archive.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # np.savez appends ".npz" unless the name already ends with it, so the
    # temp names keep the suffix.  The token is unique per call, not per
    # process: concurrent jobs saving the same cache entry must not share
    # (and unlink) each other's temporaries.
    token = f"{os.getpid()}.{uuid.uuid4().hex[:8]}"
    data_tmp = directory / f".{_FILENAME}.{token}.tmp.npz"
    meta_tmp = directory / f".{_META}.{token}.tmp"
    # Advisory writer claim: with process workers, several jobs may land
    # on the same content-addressed entry at once.  Publication stays
    # atomic (temp + os.replace) either way; the claim just elects one
    # writer and lets the others skip redundant work — a live peer is
    # writing the *same* bytes (the key pins the content), and a dead
    # one's stale claim is broken by ``acquire``.
    from repro.locking import ClaimFile

    claim = ClaimFile(directory / f".{_FILENAME}.writer.lock")
    if not claim.acquire():
        return
    try:
        with open(data_tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                cids=contigs.cids,
                depths=contigs.depths,
                offsets=contigs.offsets,
                bases=contigs.codes,
                # embedded copy of the validity key: lets the loader detect
                # a crash-interleaved (new data, old meta) pair
                key=np.frombuffer(key.encode("ascii"), dtype=np.uint8),
            )
            fh.flush()
            os.fsync(fh.fileno())
        _replace_into(data_tmp, directory / _FILENAME)
        with open(meta_tmp, "w") as fh:
            json.dump(
                {
                    "version": CHECKPOINT_FORMAT_VERSION,
                    "key": key,
                    "n_distinct_kmers": n_distinct_kmers,
                },
                fh,
            )
            fh.flush()
            os.fsync(fh.fileno())
        _replace_into(meta_tmp, directory / _META)
    finally:
        data_tmp.unlink(missing_ok=True)
        meta_tmp.unlink(missing_ok=True)
        claim.release()


def load_contigs_checkpoint(
    directory: str | Path, key: str
) -> tuple[ContigSet, int] | None:
    """Load a checkpoint if present, intact *and* matching *key*; else None.

    A truncated archive, garbage meta, version or key mismatch, or any
    layout :meth:`ContigSet.from_arrays` rejects (offsets that do not
    cover the base array or run backwards, a code above ``N``, duplicate
    cids) is treated as a missing checkpoint: logged and recomputed, never
    raised.
    """
    directory = Path(directory)
    meta_path = directory / _META
    data_path = directory / _FILENAME
    if not meta_path.exists() or not data_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict):
            return None
        if meta.get("version") != CHECKPOINT_FORMAT_VERSION:
            return None
        if meta.get("key") != key:
            return None
        with np.load(data_path) as data:
            embedded = bytes(data["key"]).decode("ascii")
            contigs = ContigSet.from_arrays(
                data["bases"], data["offsets"], data["cids"], data["depths"]
            )
        if embedded != key:
            raise ValueError(
                "archive/meta key mismatch (crash-interleaved save?)"
            )
        return contigs, int(meta.get("n_distinct_kmers", 0))
    except _CORRUPT_ERRORS as exc:
        _LOG.warning(
            "ignoring corrupt checkpoint in %s (%s: %s); recomputing",
            directory,
            type(exc).__name__,
            exc,
        )
        return None
