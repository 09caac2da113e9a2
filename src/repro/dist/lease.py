"""The serverless lease protocol: hard-link claims that expire with their owner.

Each lease owner (a queue worker, or the coordinator for its leader
lease) keeps one small **token** file,
``<queue>/leases/.tokens/<owner>.json``, holding ``{"owner", "ttl"}``
and written whole before anything links to it. A lease is a hard link
to its owner's token at ``<queue>/leases/<key>.json``; it expires one
``ttl`` after the inode's mtime. The protocol needs no coordinator
process — only three filesystem primitives that are atomic on every
POSIX filesystem (and NFS with close-to-open consistency):

* **claim** — ``link(token, leases/<key>.json)``: exactly one
  contender's link lands, everyone else sees ``FileExistsError`` and
  moves on. The claimer touches its token first, so a fresh claim gets
  a full ttl. A claim creates no file.
* **renew** — touch the token: every lease an owner holds is the same
  inode, so one ``utime`` per heartbeat tick renews them all. A held
  lease whose name now has another inode, or none, was reaped (and
  perhaps re-claimed): it is lost, and the successor's lease is never
  touched.
* **reap** — ``os.rename`` of an *expired* lease to a unique tombstone:
  only one reaper wins the rename (the loser gets ``FileNotFoundError``),
  after which the key is open for a fresh claim race.

Every one of those calls goes through the :class:`~repro.dist.store.Store`
seam, which classifies and retries transient storage errors. The seam
never weakens atomicity:
``EEXIST``/``ENOENT`` stay semantic (they *are* the protocol), and a
stat that keeps flaking resolves **conservatively** — an unreadable
claim is treated as still-claimed for one ttl, never as unclaimed,
because "unclaimed" is the answer that invites a double claim.

Done markers are links to the publisher's token too (see
:meth:`repro.dist.queue.WorkQueue.mark_done`), so a token backs at most
``TOKEN_LINKS`` links before its owner starts the next one: ext4 caps
an inode at 65,000.

The protocol minimises duplicate work; it does not have to prevent it.
If a straggler finishes a cell whose lease was reaped and re-issued,
both publishes are accepted — the config-hash key and per-cell
``SeedSequence`` seeding make the duplicate bit-identical, so merging
keeps either copy (see :meth:`repro.dist.queue.WorkQueue.merged_results`).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.dist.store import Store
from repro.obs.logbridge import get_logger, kv

__all__ = ["Lease", "LeaseBoard", "TOKEN_LINKS"]

_log = get_logger("repro.dist.lease")

#: links one token takes — a cell's claim and its done marker are two —
#: before its owner starts the next, so a token backs at most 4,096
#: cells and one file is created per 4,096 cells
TOKEN_LINKS = 8192


@dataclass
class Lease:
    """One claimed cell: who owns it and until when."""

    key: str
    owner: str
    expires_at: float

    def expired(self, now: float | None = None) -> bool:
        return (time.time() if now is None else now) >= self.expires_at


@dataclass(eq=False)
class _Token:
    """One token file of an owner in this process."""

    path: Path
    ino: int
    links: int = 0


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
        self.tokens_dir = self.root / ".tokens"
        self.tokens_dir.mkdir(exist_ok=True)
        #: each owner's tokens on this board, the current one last
        self._tokens: dict[str, list[_Token]] = {}

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- tokens -----------------------------------------------------------

    def _token(self, owner: str) -> _Token:
        """``owner``'s current token; the first use, and the use past
        ``TOKEN_LINKS``, creates a new one under a name no file has."""
        tokens = self._tokens.setdefault(owner, [])
        if tokens and tokens[-1].links < TOKEN_LINKS:
            return tokens[-1]
        payload = {"owner": owner, "ttl": self.ttl}
        for n in itertools.count(len(tokens)):
            path = self.tokens_dir / (
                f"{owner}.json" if n == 0 else f"{owner}.{n}.json"
            )
            if self.store.create_excl_json(path, payload):
                break
        token = _Token(path, self.store.stat(path).st_ino)
        tokens.append(token)
        return token

    def _link(self, token: _Token, path: Path) -> bool:
        if not self.store.link(token.path, path):
            return False
        token.links += 1
        return True

    def link_token(self, owner: str, path: str | os.PathLike) -> bool:
        """Hard-link ``owner``'s token as ``path``; False when ``path``
        already exists."""
        return self._link(self._token(owner), Path(path))

    def retire(self, owner: str) -> None:
        """Unlink ``owner``'s token names at a clean exit. The links in
        ``done/`` keep the inode; a lease still linked to it is no
        longer renewed and ages out."""
        for token in self._tokens.pop(owner, ()):
            try:
                self.store.unlink(token.path)
            except FileNotFoundError:
                pass

    # -- protocol ---------------------------------------------------------

    def try_claim(self, key: str, owner: str, now: float | None = None) -> bool:
        """Touch the owner's token and link it as ``key``'s lease; True
        when this owner won the race, or already holds the lease.

        The re-take matters after a release that failed: the orphan is
        this owner's inode, which every claim and tick touches, so it
        would never age out while the owner lives.
        """
        token = self._token(owner)
        self.store.touch(token.path, now)
        return self._link(token, self._path(key)) or self._holds(key, owner)

    def _still_claimed(self, key: str) -> Lease:
        """The conservative answer when a claim file cannot be judged.

        Reading an existing claim as *unclaimed* invites a double claim
        (two owners, one cell); reading it as claimed-for-one-more-ttl
        merely delays a re-issue. Always take the delay.
        """
        return Lease(key=key, owner="?unreadable", expires_at=time.time() + self.ttl)

    def read(self, key: str) -> Lease | None:
        """The current lease on ``key``, or None when unclaimed."""
        return self._read(key, self._path(key))

    def _read(self, key: str, path: Path) -> Lease | None:
        try:
            text = self.store.read_text(path)
        except FileNotFoundError:
            return None
        try:
            mtime = self.store.stat(path).st_mtime
        except FileNotFoundError:
            return None  # reaped between read and stat: unclaimed
        except OSError as exc:
            # A stat flake must not read a *claimed* key as unclaimed —
            # that is the double-claim answer. Report it and hold the
            # claim for one more ttl instead.
            _log.warning(
                "stat flaked on a lease; treating as still claimed",
                extra=kv(key=key, error=str(exc)),
            )
            return self._still_claimed(key)
        try:
            doc = json.loads(text)
            owner, ttl = str(doc["owner"]), float(doc.get("ttl", self.ttl))
        except (ValueError, KeyError, TypeError, AttributeError):
            # Not a token (a token is written whole before anything links
            # to it): no owner renews it, so it ages out like a silent one.
            owner, ttl = "?torn", self.ttl
        return Lease(key=key, owner=owner, expires_at=mtime + ttl)

    def renew(
        self, owner: str, keys: Iterable[str], now: float | None = None
    ) -> set[str]:
        """Renew ``owner``'s leases on ``keys`` (heartbeat); the keys it
        has lost.

        Touching the owner's tokens renews every lease it holds. A key
        whose lease is gone, or is another inode (reaped and
        re-claimed), is lost — and the new owner's lease is never
        touched.
        """
        for token in self._tokens.get(owner, ()):
            self.store.touch(token.path, now)
        return {key for key in keys if not self._holds(key, owner)}

    def _holds(self, key: str, owner: str) -> bool:
        """Whether ``key``'s lease is a link to one of ``owner``'s tokens."""
        try:
            ino = self.store.stat(self._path(key)).st_ino
        except FileNotFoundError:
            return False
        return any(token.ino == ino for token in self._tokens.get(owner, ()))

    def release(self, key: str, owner: str) -> bool:
        """Drop ``owner``'s lease after a publish; True when removed.

        Only while the lease is still a link to this owner's token, so a
        straggler never removes its successor's lease.
        """
        if not self._holds(key, owner):
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
        renewed between the expiry check and the rename — the tombstone
        is the same inode, so it sees the owner's touch — is restored,
        so a live owner is never evicted by a slow reaper.
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
            current = self._read(key, tomb)
        except OSError:
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
