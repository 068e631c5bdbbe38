"""Model registry: versioned, content-addressed zero-shot model deployments.

The registry turns trained :class:`~repro.core.ZeroShotCostModel` objects
into *deployments* an online predictor can serve:

* **Content addressing** — every published checkpoint is stored under the
  model's :meth:`~repro.core.ZeroShotCostModel.state_digest` (a digest of
  the parameter/scaler arrays, not the ``.npz`` container).  Publishing the
  same state twice writes one payload; two different states can never
  collide.  Payloads are the exact bytes :meth:`ZeroShotCostModel.save`
  writes, so a deployment round-trips through :mod:`repro.nn.serialize`
  with dtypes intact — a float32 checkpoint reloads bit-identically.
* **Versioned manifests** — each logical model name has a manifest listing
  its versions, the currently *active* one, and the promotion history.
  Manifests live in the :class:`~repro.bench.store.ArtifactStore` (kind
  ``manifest``), whose temp-file-plus-rename write makes every
  :meth:`promote` / :meth:`rollback` atomic on disk: a concurrent reader
  sees either the old manifest or the new one, never a torn state.
* **Checksum-verified hydration with quarantine** — a checkpoint read is
  verified twice: the store checks the payload checksum, and the registry
  re-derives the loaded model's :meth:`state_digest` and compares it to
  the content address.  A corrupt or torn ``deploy`` entry is *quarantined*
  (moved to ``<store>/quarantine/deploy/``, never deleted blind), the
  damaged version is marked in the manifest, and — when it was the active
  version — the manifest re-resolves to the most recent previous good
  version, so serving degrades to known-good state instead of wedging.
  Hydration failures raise the typed :class:`HydrationError` (a
  :class:`RoutingError`); no bare ``KeyError``/``OSError`` leaks.
  :meth:`verify` audits every deployment against its content key on
  demand.
* **Database-fingerprint compatibility** — deployments record the
  :func:`~repro.featurization.database_digest` of every database they were
  trained on (or declared compatible with).  :meth:`route` resolves a
  request's database digest to a compatible deployment, falling back to the
  *default* model for unseen databases — the zero-shot case the paper is
  about, and the BRAD-style multi-model routing the predictor server uses.
* **Hot-swap signalling** — every mutation (including a quarantine) bumps
  :attr:`generation`; the in-process predictor compares the counter per
  batch (one int read) and re-resolves its routes only when something
  actually changed, so a promote takes effect between micro-batches with
  zero downtime.  Cross-process readers call :meth:`refresh` to re-read
  the manifests from disk.

Perfstats: ``serve.registry.publish`` / ``.promote`` / ``.rollback`` /
``.quarantine`` / ``.verify``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import perfstats
from ..bench.store import ArtifactStore
from ..core.api import ZeroShotCostModel
from ..featurization import database_digest
from ..nn.serialize import load_state
from ..robustness import faults

__all__ = ["ModelRegistry", "ModelDeployment", "RoutingError",
           "HydrationError"]

_DEPLOY_KIND = "deploy"
_MANIFEST_KIND = "manifest"
_REGISTRY_META = "__registry__"
# Hydrated checkpoints a registry keeps in memory (LRU).
_MAX_LOADED = 8
# Mapped extractions: <store>/mapped/<content key>/{arrays.bin,manifest.json}.
# Stores written before this layout hold per-array ``.npy`` extractions
# under <store>/mmap/<content key>/; nothing reads them, so such a
# checkpoint is extracted again here and its old directory removed.
_MAPPED_DIR = "mapped"
_OLD_MMAP_DIR = "mmap"
# Alignment of every array's offset in arrays.bin.
_ALIGN = 64


class RoutingError(RuntimeError):
    """No deployment can serve the request (unknown model, no default, or
    every candidate checkpoint failed to hydrate)."""


class HydrationError(RoutingError):
    """A deployment's checkpoint failed to hydrate (missing, corrupt, or
    its content digest does not match the content address).  The damaged
    entry has been quarantined and the manifest re-resolved."""


@dataclass(frozen=True)
class ModelDeployment:
    """Immutable metadata for one published model version."""

    name: str
    version: int
    checkpoint_key: str  # hex state digest; content address of the payload
    db_digests: tuple    # hex database digests this deployment serves
    hidden_dim: int
    dtype: str

    def as_dict(self):
        return {"name": self.name, "version": self.version,
                "checkpoint_key": self.checkpoint_key,
                "db_digests": list(self.db_digests),
                "hidden_dim": self.hidden_dim, "dtype": self.dtype}

    @classmethod
    def from_dict(cls, payload):
        return cls(name=payload["name"], version=payload["version"],
                   checkpoint_key=payload["checkpoint_key"],
                   db_digests=tuple(payload["db_digests"]),
                   hidden_dim=payload["hidden_dim"], dtype=payload["dtype"])


class ModelRegistry:
    """Publish / promote / rollback / route / load / verify deployments.

    ``store`` is an :class:`~repro.bench.store.ArtifactStore` (or a path,
    which becomes one).  All mutating operations are serialized by an
    internal lock; on-disk manifest writes are atomic, so a second registry
    over the same directory (another process) sees consistent state after
    :meth:`refresh`.

    ``mapped`` seeds the :meth:`load_mmap` cache with models another
    registry over the same store already hydrated and verified (its
    :meth:`mapped_models`): a forked fleet worker adopts the router's
    mapped models instead of hydrating them again.
    """

    def __init__(self, store, mapped=None):
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.generation = 0
        self._lock = threading.RLock()
        # checkpoint_key (or ("mmap", key) for load_mmap) ->
        # ZeroShotCostModel; bounded LRU so repeated swap/rollback cycles
        # between a few versions never re-read disk.
        self._loaded = OrderedDict(
            (("mmap", key), model) for key, model in (mapped or {}).items())
        self._trim_loaded()
        self._manifests = {}
        meta = store.load(_MANIFEST_KIND, store.key(_REGISTRY_META))
        self._names = list(meta["names"]) if meta else []
        self._default = meta["default"] if meta else None
        for name in self._names:
            manifest = store.load(_MANIFEST_KIND, store.key(name))
            if manifest is not None:
                self._manifests[name] = manifest
        self._rebuild_routing()

    # ------------------------------------------------------------------
    # Publishing and version management
    # ------------------------------------------------------------------
    def publish(self, name, model, dbs=(), db_digests=(), activate=True,
                default=False):
        """Publish ``model`` as a new version of ``name``.

        ``dbs`` (Database objects) and/or ``db_digests`` (hex strings)
        declare which databases the deployment is compatible with — they
        become routing targets.  ``activate=True`` (the default) promotes
        the new version immediately; ``default=True`` additionally makes
        ``name`` the registry's fallback model for unrouted databases
        (nothing becomes the fallback implicitly — an undeclared database
        against a registry with no default fails fast instead of being
        served by a model that never claimed it).  Returns the
        :class:`ModelDeployment`.
        """
        digests = tuple(database_digest(db).hex() for db in dbs)
        digests += tuple(db_digests)
        checkpoint_key = model.state_digest()
        with self._lock:
            # Content-addressed: identical state publishes one payload.
            if not self.store.contains(_DEPLOY_KIND, checkpoint_key):
                self.store.save(_DEPLOY_KIND, checkpoint_key,
                                model.to_bytes())
            manifest = self._manifests.get(
                name, {"name": name, "versions": [], "active": None,
                       "history": [], "quarantined": []})
            deployment = ModelDeployment(
                name=name, version=len(manifest["versions"]) + 1,
                checkpoint_key=checkpoint_key, db_digests=digests,
                hidden_dim=model.config.hidden_dim,
                dtype=model.config.dtype)
            manifest["versions"].append(deployment.as_dict())
            if activate:
                manifest["active"] = deployment.version
                manifest["history"].append(deployment.version)
            self._write_manifest(name, manifest)
            if name not in self._names:
                self._names.append(name)
            if default:
                self._default = name
            self._write_meta()
            self._loaded[checkpoint_key] = model
            self._trim_loaded()
            self._mutated()
        perfstats.increment("serve.registry.publish")
        return deployment

    def promote(self, name, version):
        """Atomically make ``version`` the active deployment of ``name``."""
        with self._lock:
            manifest = self._manifest(name)
            if not 1 <= version <= len(manifest["versions"]):
                raise ValueError(f"{name!r} has no version {version}")
            manifest["active"] = version
            manifest["history"].append(version)
            self._write_manifest(name, manifest)
            self._mutated()
        perfstats.increment("serve.registry.promote")
        return self.active(name)

    def rollback(self, name):
        """Revert ``name`` to the previously active version (atomic)."""
        with self._lock:
            manifest = self._manifest(name)
            if len(manifest["history"]) < 2:
                raise ValueError(f"{name!r} has no previous version to "
                                 "roll back to")
            manifest["history"].pop()
            manifest["active"] = manifest["history"][-1]
            self._write_manifest(name, manifest)
            self._mutated()
        perfstats.increment("serve.registry.rollback")
        return self.active(name)

    def set_default(self, name):
        """Make ``name`` the fallback model for unrouted databases."""
        with self._lock:
            self._manifest(name)  # validates existence
            self._default = name
            self._write_meta()
            self._mutated()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self):
        return tuple(self._names)

    @property
    def default_model(self):
        return self._default

    def deployments(self, name):
        """All published versions of ``name``, oldest first."""
        manifest = self._manifest(name)
        return [ModelDeployment.from_dict(d) for d in manifest["versions"]]

    def quarantined_versions(self, name):
        """Version numbers of ``name`` whose checkpoints were quarantined."""
        return tuple(self._manifest(name).get("quarantined", ()))

    def find_version(self, name, checkpoint_key):
        """Newest version of ``name`` backed by ``checkpoint_key`` (or None).

        Checkpoints are content-addressed, so this makes re-publishing a
        deterministically retrained candidate idempotent: a controller that
        crashed after ``publish`` but before recording the fact finds the
        existing version on retry instead of minting a duplicate.
        """
        try:
            manifest = self._manifest(name)
        except RoutingError:
            return None
        for entry in reversed(manifest["versions"]):
            if entry["checkpoint_key"] == checkpoint_key:
                return entry["version"]
        return None

    def active(self, name):
        """The active :class:`ModelDeployment` of ``name`` (None if none)."""
        manifest = self._manifest(name)
        if manifest["active"] is None:
            return None
        return ModelDeployment.from_dict(
            manifest["versions"][manifest["active"] - 1])

    def route(self, db_digest):
        """The deployment serving a database digest (BRAD-style routing).

        A database some *active* deployment explicitly lists routes there;
        anything else — the unseen databases zero-shot models exist for —
        falls back to the default model's active deployment.  Returns
        ``None`` when nothing is routable (no compatible model and no
        default).  Accepts bytes or hex.  Inconsistent registry state (a
        routing target whose manifest vanished) raises the typed
        :class:`RoutingError`, never a bare ``KeyError``.
        """
        if isinstance(db_digest, bytes):
            db_digest = db_digest.hex()
        with self._lock:
            name = self._routing.get(db_digest, self._default)
        if name is None:
            return None
        return self.active(name)

    def load(self, name=None, version=None, deployment=None):
        """The :class:`ZeroShotCostModel` of a deployment (memoized).

        Without arguments loads the default model's active deployment;
        ``version=None`` means the active version.  Reloads hit a small
        in-memory LRU keyed on checkpoint content, so swap/rollback cycles
        between recent versions never touch disk.

        Hydration is checksum-verified end to end: the store validates the
        payload checksum, and the deserialized model's
        :meth:`~repro.core.ZeroShotCostModel.state_digest` must equal the
        content address it was stored under.  Any failure quarantines the
        entry, re-resolves the manifest to the previous good version (see
        :meth:`quarantine_version`) and raises :class:`HydrationError`.
        """
        deployment = self._resolve_deployment(name, version, deployment)
        return self._load_cached(deployment, self._hydrate, key_prefix=None)

    def load_mmap(self, name=None, version=None, deployment=None):
        """Like :meth:`load`, but hydrate via memory-mapped arrays.

        The checkpoint's ``.npz`` members are materialized once (per
        content address) into one file on disk — see
        :meth:`materialize_checkpoint` — which is mapped once; every
        parameter and scaler array is a read-only view into that mapping.
        Any number of processes serving the same checkpoint share one
        page-cache copy instead of each deserializing its own; this is how
        the serving fleet hydrates.

        The content address is verified exactly as in :meth:`load` (the
        mapped model's :meth:`~repro.core.ZeroShotCostModel.state_digest`
        must equal the checkpoint key), with the same quarantine +
        :class:`HydrationError` behavior on damage.  Models returned here
        are inference-only: their parameters are not writable.
        """
        deployment = self._resolve_deployment(name, version, deployment)
        return self._load_cached(deployment, self._hydrate_mmap,
                                 key_prefix="mmap")

    def _resolve_deployment(self, name, version, deployment):
        if deployment is not None:
            return deployment
        name = name or self._default
        if name is None:
            raise ValueError("registry has no default model")
        if version is None:
            deployment = self.active(name)
            if deployment is None:
                raise ValueError(f"{name!r} has no active version")
            return deployment
        manifest = self._manifest(name)
        if not 1 <= version <= len(manifest["versions"]):
            raise ValueError(f"{name!r} has no version {version}")
        return ModelDeployment.from_dict(manifest["versions"][version - 1])

    def _load_cached(self, deployment, hydrate, key_prefix):
        key = deployment.checkpoint_key
        cache_key = key if key_prefix is None else (key_prefix, key)
        with self._lock:
            model = self._loaded.get(cache_key)
            if model is not None:
                self._loaded.move_to_end(cache_key)
                return model
        model, failure = hydrate(key)
        if model is None:
            self.quarantine_version(deployment.name, deployment.version,
                                    reason=failure)
            raise HydrationError(
                f"checkpoint {key} of deployment {deployment.name} "
                f"v{deployment.version} failed to hydrate ({failure}); "
                "entry quarantined, manifest re-resolved")
        with self._lock:
            self._loaded[cache_key] = model
            self._trim_loaded()
        return model

    def _hydrate(self, key):
        """Read + verify one checkpoint: ``(model, None)`` or
        ``(None, failure_code)``.  Never raises for damaged payloads."""
        payload = self.store.load(_DEPLOY_KIND, key, on_corrupt="quarantine")
        if payload is None:
            return None, "missing-or-corrupt"
        try:
            payload = faults.corrupt("registry.hydrate", payload,
                                     keys=(key,))
            model = ZeroShotCostModel.from_bytes(payload)
        except Exception:  # torn/corrupt checkpoint bytes
            return None, "missing-or-corrupt"
        if model.state_digest() != key:
            return None, "digest-mismatch"
        return model, None

    # ------------------------------------------------------------------
    # mmap hydration (the fleet's shared-checkpoint path)
    # ------------------------------------------------------------------
    def mmap_dir(self, key):
        """Where a checkpoint's mapped extraction lives."""
        return self.store.root / _MAPPED_DIR / key

    def materialize_checkpoint(self, key):
        """Extract a checkpoint's arrays into one mappable file.

        ``np.load(mmap_mode="r")`` cannot memory-map members *inside* an
        ``.npz`` zip container (they are decompressed/copied), so the mmap
        path extracts every array, each at a 64-byte aligned offset, into
        one ``arrays.bin`` under ``<store>/mapped/<content-key>/``, plus a
        ``manifest.json`` recording each array's name, dtype, shape and
        offset and the checkpoint metadata.  The extraction is atomic: both
        files are written into a private temp directory and the whole
        directory is renamed into place, so a concurrent reader sees either
        nothing or a complete extraction — never a torn one.  Losing the
        rename race to another process is fine: the loser discards its temp
        directory and uses the winner's (both extracted identical
        content-addressed bytes).

        Returns the directory path, or ``None`` when the payload is
        missing or unreadable.  Idempotent and safe to call from any
        number of processes concurrently.  Once the extraction is in
        place, the key's old per-array extraction (if any) is removed.
        """
        target = self.mmap_dir(key)
        if (target / "manifest.json").exists():
            self._remove_old_extraction(key)
            return target
        payload = self.store.load(_DEPLOY_KIND, key, on_corrupt="quarantine")
        if payload is None:
            return None
        try:
            payload = faults.corrupt("registry.hydrate", payload,
                                     keys=(key,))
            state, metadata = load_state(io.BytesIO(payload))
        except Exception:  # torn/corrupt checkpoint bytes
            return None
        tmp = target.parent / f".tmp-{key}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        arrays, offset = [], 0
        with open(tmp / "arrays.bin", "wb") as fh:
            for name in sorted(state):
                values = np.ascontiguousarray(state[name])
                offset = -(-offset // _ALIGN) * _ALIGN
                fh.seek(offset)
                fh.write(values.tobytes())
                arrays.append([name, values.dtype.str, list(values.shape),
                               offset])
                offset += values.nbytes
            fh.truncate(offset)  # covers an empty array at the end
        with open(tmp / "manifest.json", "w") as fh:
            json.dump({"arrays": arrays, "metadata": metadata}, fh)
        try:
            os.rename(tmp, target)
        except OSError:
            # Another process renamed its extraction first; use theirs.
            shutil.rmtree(tmp, ignore_errors=True)
        self._remove_old_extraction(key)
        return target

    def _remove_old_extraction(self, key):
        shutil.rmtree(self.store.root / _OLD_MMAP_DIR / key,
                      ignore_errors=True)

    def _hydrate_mmap(self, key):
        """Materialize + map + verify one checkpoint: ``(model, None)`` or
        ``(None, failure_code)``.  Never raises for damaged payloads."""
        try:
            root = self.materialize_checkpoint(key)
        except Exception:
            return None, "missing-or-corrupt"
        if root is None:
            return None, "missing-or-corrupt"
        try:
            with open(root / "manifest.json") as fh:
                manifest = json.load(fh)
            mapped = np.memmap(root / "arrays.bin", dtype=np.uint8,
                               mode="r")
            state = {name: np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                                      buffer=mapped, offset=offset)
                     for name, dtype, shape, offset in manifest["arrays"]}
            model = ZeroShotCostModel.from_state(state, manifest["metadata"],
                                                 copy=False)
        except Exception:  # torn/unreadable extraction
            return None, "missing-or-corrupt"
        if model.state_digest() != key:
            return None, "digest-mismatch"
        return model, None

    def mapped_models(self):
        """``{checkpoint key: model}`` of every checkpoint this registry
        holds hydrated through :meth:`load_mmap` — a plain dict taken under
        the registry lock.  Each model was digest-verified when it was
        hydrated; another registry over the same store adopts them through
        its ``mapped`` argument instead of hydrating again."""
        with self._lock:
            return {cache_key[1]: model
                    for cache_key, model in self._loaded.items()
                    if isinstance(cache_key, tuple)}

    def verify(self):
        """Audit every deployment's checkpoint against its content key.

        Loads each distinct checkpoint payload once, re-derives its
        :meth:`state_digest` and compares it to the content address.
        Returns ``{name: {version: "ok" | "missing-or-corrupt" |
        "digest-mismatch" | "quarantined"}}``.  Damaged entries are
        quarantined (file moved aside, manifest re-resolved) exactly as a
        serving-path hydration failure would.
        """
        perfstats.increment("serve.registry.verify")
        report = {}
        verified = {}  # checkpoint_key -> status, one disk read per payload
        for name in self.names():
            report[name] = {}
            quarantined = set(self.quarantined_versions(name))
            for deployment in self.deployments(name):
                if deployment.version in quarantined:
                    report[name][deployment.version] = "quarantined"
                    continue
                key = deployment.checkpoint_key
                status = verified.get(key)
                if status is None:
                    with self._lock:
                        cached = self._loaded.get(key)
                    if cached is not None and cached.state_digest() == key:
                        status = "ok"
                    else:
                        model, failure = self._hydrate(key)
                        status = "ok" if model is not None else failure
                    verified[key] = status
                if status != "ok":
                    self.quarantine_version(name, deployment.version,
                                            reason=status)
                report[name][deployment.version] = status
        return report

    def quarantine_version(self, name, version, reason=""):
        """Mark ``version`` of ``name`` damaged and re-resolve the manifest.

        The checkpoint file (if still present) moves to the store's
        quarantine directory — never a blind delete.  When the quarantined
        version was active, the manifest's active pointer re-resolves to
        the most recent previous version whose checkpoint is distinct and
        not itself quarantined (promotion history first, then any
        version); with no good version left the model deactivates.  Every
        mutation bumps :attr:`generation`, so attached servers re-resolve
        routes immediately.
        """
        with self._lock:
            manifest = self._manifest(name)
            if not 1 <= version <= len(manifest["versions"]):
                raise ValueError(f"{name!r} has no version {version}")
            quarantined = manifest.setdefault("quarantined", [])
            if version not in quarantined:
                quarantined.append(version)
            bad_key = manifest["versions"][version - 1]["checkpoint_key"]
            self.store.quarantine(_DEPLOY_KIND, bad_key)
            self._loaded.pop(bad_key, None)
            self._loaded.pop(("mmap", bad_key), None)
            # The extractions are derived data; the payload itself is what
            # gets preserved in quarantine.
            shutil.rmtree(self.mmap_dir(bad_key), ignore_errors=True)
            self._remove_old_extraction(bad_key)
            if manifest["active"] == version:
                manifest["active"] = self._previous_good(manifest, bad_key)
            self._write_manifest(name, manifest)
            self._mutated()
        perfstats.increment("serve.registry.quarantine")
        return self.active(name)

    @staticmethod
    def _previous_good(manifest, bad_key):
        """The freshest non-quarantined version with a distinct checkpoint."""
        quarantined = set(manifest.get("quarantined", ()))
        candidates = [v for v in reversed(manifest["history"])
                      if v not in quarantined]
        candidates += [d["version"] for d in reversed(manifest["versions"])
                       if d["version"] not in quarantined]
        for candidate in candidates:
            entry = manifest["versions"][candidate - 1]
            if entry["checkpoint_key"] != bad_key:
                return candidate
        return None

    def refresh(self):
        """Re-read every manifest from disk (cross-process visibility).

        Bumps :attr:`generation` so attached servers re-resolve their
        routes on the next batch.  The new state is built aside and
        swapped in with single rebinds, so concurrent readers (a serving
        batcher mid-route) always observe either the old view or the new
        one — never a half-populated dict.
        """
        with self._lock:
            meta = self.store.load(_MANIFEST_KIND,
                                   self.store.key(_REGISTRY_META))
            names = list(meta["names"]) if meta else list(self._names)
            manifests = {}
            for name in names:
                manifest = self.store.load(_MANIFEST_KIND,
                                           self.store.key(name))
                if manifest is not None:
                    manifests[name] = manifest
            self._names = names
            if meta:
                self._default = meta["default"]
            self._manifests = manifests
            self._mutated()

    # ------------------------------------------------------------------
    def _manifest(self, name):
        manifest = self._manifests.get(name)
        if manifest is None:
            raise RoutingError(f"no model {name!r} in the registry")
        return manifest

    def _write_manifest(self, name, manifest):
        self.store.save(_MANIFEST_KIND, self.store.key(name), manifest)
        self._manifests[name] = manifest

    def _write_meta(self):
        self.store.save(_MANIFEST_KIND, self.store.key(_REGISTRY_META),
                        {"names": list(self._names),
                         "default": self._default})

    def _rebuild_routing(self):
        routing = {}
        for name in self._names:
            manifest = self._manifests.get(name)
            if not manifest or manifest["active"] is None:
                continue
            active = manifest["versions"][manifest["active"] - 1]
            for digest in active["db_digests"]:
                routing[digest] = name
        self._routing = routing

    def _mutated(self):
        self._rebuild_routing()
        self.generation += 1

    def _trim_loaded(self):
        while len(self._loaded) > _MAX_LOADED:
            self._loaded.popitem(last=False)

    def __repr__(self):
        return (f"ModelRegistry({str(self.store.root)!r}, "
                f"models={len(self._names)}, default={self._default!r})")
