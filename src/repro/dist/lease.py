"""The serverless lease protocol: atomic file claims with expiry.

A lease is one small JSON file under ``<queue>/leases/<key>.json``
holding the owner id, claim time and expiry. The protocol needs no
coordinator process — only three filesystem primitives that are atomic
on every POSIX filesystem (and NFS with close-to-open consistency):

* **claim** — ``open(..., O_CREAT | O_EXCL)``: exactly one contender
  creates the file, everyone else sees ``FileExistsError`` and moves on.
* **renew** — rewrite via temp file + ``os.replace``: readers observe
  either the old lease or the new one, never a torn intermediate.
* **reap** — ``os.rename`` of an *expired* lease to a unique tombstone:
  only one reaper wins the rename (the loser gets ``FileNotFoundError``),
  after which the key is open for a fresh claim race.

Every one of those calls goes through the :class:`~repro.dist.store.Store`
seam, which classifies and retries transient storage errors. The seam
never weakens atomicity:
``EEXIST``/``ENOENT`` stay semantic (they *are* the protocol), and a
read that keeps flaking resolves **conservatively** — an unreadable
claim is treated as still-claimed for one ttl, never as unclaimed,
because "unclaimed" is the answer that invites a double claim.

The protocol minimises duplicate work; it does not have to prevent it.
If a straggler finishes a cell whose lease was reaped and re-issued,
both publishes are accepted — the config-hash key and per-cell
``SeedSequence`` seeding make the duplicate bit-identical, so merging
keeps either copy (see :meth:`repro.dist.queue.WorkQueue.merged_results`).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.dist.store import Store
from repro.obs.logbridge import get_logger, kv

__all__ = ["Lease", "LeaseBoard"]

_log = get_logger("repro.dist.lease")


@dataclass
class Lease:
    """One claimed cell: who owns it and until when."""

    key: str
    owner: str
    claimed_at: float
    expires_at: float
    renewals: int = 0

    def expired(self, now: float | None = None) -> bool:
        return (time.time() if now is None else now) >= self.expires_at

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "owner": self.owner,
            "claimed_at": self.claimed_at,
            "expires_at": self.expires_at,
            "renewals": self.renewals,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Lease":
        return cls(
            key=data["key"],
            owner=data["owner"],
            claimed_at=float(data["claimed_at"]),
            expires_at=float(data["expires_at"]),
            renewals=int(data.get("renewals", 0)),
        )


class LeaseBoard:
    """The lease directory of one work queue."""

    def __init__(
        self,
        root: str | os.PathLike,
        ttl: float = 30.0,
        store: Store | None = None,
    ) -> None:
        if not math.isfinite(ttl) or ttl <= 0:
            raise ValueError(f"lease ttl must be positive and finite, got {ttl!r}")
        self.root = Path(root)
        self.ttl = float(ttl)
        self.store = store if store is not None else Store()
        self.root.mkdir(parents=True, exist_ok=True)
        self._tombstones = self.root / ".reaped"
        self._tombstones.mkdir(exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- protocol ---------------------------------------------------------

    def try_claim(self, key: str, owner: str, now: float | None = None) -> bool:
        """Attempt the O_EXCL claim; True when this owner won the race."""
        now = time.time() if now is None else now
        lease = Lease(key=key, owner=owner, claimed_at=now, expires_at=now + self.ttl)
        return self.store.create_excl_json(self._path(key), lease.to_json_dict())

    def _still_claimed(self, key: str) -> Lease:
        """The conservative answer when a claim file cannot be judged.

        Reading an existing claim as *unclaimed* invites a double claim
        (two owners, one cell); reading it as claimed-for-one-more-ttl
        merely delays a re-issue. Always take the delay.
        """
        now = time.time()
        return Lease(
            key=key, owner="?unreadable", claimed_at=now,
            expires_at=now + self.ttl,
        )

    def read(self, key: str) -> Lease | None:
        """The current lease on ``key``, or None when unclaimed/torn."""
        try:
            text = self.store.read_text(self._path(key))
            return Lease.from_json_dict(json.loads(text))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, ValueError):
            # A torn claim write (crash inside the O_EXCL fill). It can
            # never be renewed, so it ages out like any silent owner:
            # treat it as expired-at-claim once it is older than a ttl.
            try:
                age = time.time() - self.store.stat_mtime(self._path(key))
            except FileNotFoundError:
                return None  # reaped between read and stat: unclaimed
            except OSError as exc:
                # A stat flake must not read a *claimed* key as
                # unclaimed — that is the double-claim answer. Report
                # it and hold the claim for one more ttl instead.
                _log.warning(
                    "stat flaked on torn lease; treating as still claimed",
                    extra=kv(key=key, error=str(exc)),
                )
                return self._still_claimed(key)
            if age >= self.ttl:
                return Lease(key=key, owner="?torn", claimed_at=0.0, expires_at=0.0)
            return Lease(
                key=key, owner="?torn", claimed_at=time.time(),
                expires_at=time.time() + self.ttl,
            )

    def renew(self, key: str, owner: str, now: float | None = None) -> bool:
        """Extend the expiry of ``owner``'s lease (heartbeat).

        Returns False — without touching the file — when the lease is
        gone or has been reaped and re-claimed by someone else, so a
        straggler can never clobber the new owner's lease.
        """
        now = time.time() if now is None else now
        lease = self.read(key)
        if lease is None or lease.owner != owner:
            return False
        lease.expires_at = now + self.ttl
        lease.renewals += 1
        self.store.atomic_write_json(self._path(key), lease.to_json_dict())
        return True

    def release(self, key: str, owner: str) -> bool:
        """Drop ``owner``'s lease after a publish; True when removed."""
        lease = self.read(key)
        if lease is None or lease.owner != owner:
            return False
        try:
            self.store.unlink(self._path(key))
        except FileNotFoundError:
            return False
        return True

    def reap(self, key: str, now: float | None = None) -> bool:
        """Retire an *expired* lease so the cell can be re-issued.

        Atomic via rename-to-tombstone: of N concurrent reapers exactly
        one wins (the others get ``FileNotFoundError``), and a lease
        renewed between the expiry check and the rename is re-read from
        the tombstone and restored, so a live owner is never evicted by
        a slow reaper.
        """
        lease = self.read(key)
        if lease is None or not lease.expired(now):
            return False
        tomb = self._tombstones / f"{key}-{os.getpid()}-{time.monotonic_ns()}"
        try:
            self.store.rename(self._path(key), tomb)
        except FileNotFoundError:
            return False  # another reaper won
        try:
            current = Lease.from_json_dict(json.loads(self.store.read_text(tomb)))
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            current = None
        if current is not None and not current.expired(now):
            # The owner heartbeated in the race window; put it back.
            self.store.replace(tomb, self._path(key))
            return False
        try:
            self.store.unlink(tomb)
        except FileNotFoundError:
            pass
        return True

    def force_release(self, key: str) -> bool:
        """Drop ``key``'s lease unconditionally; True when removed.

        Unlike :meth:`release` this does **not** check ownership — the
        caller is asserting the owner is dead (a supervisor that just
        reaped the worker process, a doctor repairing an orphan lease,
        a coordinator taking over from a dead local leader). Never use
        it on a lease whose owner might still be running.
        """
        try:
            self.store.unlink(self._path(key))
        except FileNotFoundError:
            return False
        return True

    # -- inspection -------------------------------------------------------

    def leases(self) -> list[Lease]:
        """Every readable lease on the board (snapshot, unsorted)."""
        out = []
        for path in self.root.glob("*.json"):
            lease = self.read(path.stem)
            if lease is not None:
                out.append(lease)
        return out

    def owner_leases(self, owner: str) -> list[Lease]:
        """Every lease currently held by ``owner`` (snapshot)."""
        return [lease for lease in self.leases() if lease.owner == owner]
