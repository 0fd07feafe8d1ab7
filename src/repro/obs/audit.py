"""Divergence auditor: a hierarchical per-epoch digest ledger.

The determinism guard pins one SHA-256 over the *entire* event timeline
(per-component ``name:ts,ts,...;`` payloads folded in sorted-name order —
the ``GOLDEN_DIGEST`` of ``tests/test_determinism_guard.py``; one
component's payload hashes to its :func:`timeline_digest`).  That
single hash proves *that* two runs diverged; this module records *where*:
a streaming ledger of per-component, per-epoch subdigests that
``splitsim-inspect diff`` walks to the first divergent
``(epoch, component)``.

**Epochs are fixed simulated-time windows** (``window_ps`` wide, recorded
in the ledger header), *not* wall-clock heartbeat intervals or coordinator
round counts: a component executes its events in nondecreasing timestamp
order in every execution mode, so window boundaries — and therefore rows —
are identical between a fast-mode run, a strict in-process run, and a
multiprocess run.  Window ``e`` covers ``[e*window_ps, (e+1)*window_ps)``
and closes as soon as an event at or past its upper bound executes (or at
run end); empty windows produce no row.

**Per-epoch digests chain**: row ``e``'s digest is
``sha256(prev_digest | epoch | "ts,ts,...")`` over the window's timestamp
text, seeded with the empty string — so a single perturbed event changes
its own window's digest *and* every later one, and the first mismatching
row in a walk is exactly the first divergent window.

**The root is the golden fold, bit for bit**: each component's closed
window chunks concatenate (comma-joined) back into the exact
``name:ts,ts,...;`` payload the guard hashes, and :func:`fold_root`
feeds those payloads sha256 in sorted-name order — components with zero
events are skipped, matching the guard's "only components that executed
events" semantics.  Auditing is observation only (one list-append per
event on an already-existing kernel trace hook), so the root equals
``GOLDEN_DIGEST`` with auditing on or off.

This is the one event digest: in-process auditing and a multiprocess
child run with ``digest=True``, ``audit_path`` or both all record one
:class:`ComponentAuditor` buffer append per event, and every digest is
computed from those buffers.

Flush points: :class:`AuditRecorder` is a round observer on
:attr:`~repro.parallel.simulation.Simulation.observers`, so the strict
in-process coordinator flushes closed windows at sync-round boundaries
(:meth:`AuditRecorder.on_round`) and a fast run at run end.  Multiprocess
children flush on telemetry heartbeats, piggyback the closed rows on the
:class:`~repro.obs.telemetry.Heartbeat`, and ship their final digest plus
zlib-compressed payload in the :class:`~repro.parallel.procrunner.ProcResult`
so the parent's :class:`MpAuditCollector` can fold the exact root.

Persistence is columnar JSONL (``audit.jsonl``): a header object, one
``{"c": comp_index, "e": epoch, "n": events, "d": digest, "t0": .., "t1": ..}``
row per non-empty (component, window), then a ``{"final": true, ...}``
trailer carrying the root and per-component digests.  The run report
references the ledger (schema 4's ``audit`` field).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..kernel.simtime import US, fmt_time
from .schema import AUDIT_SCHEMA

#: The header's ``kind`` marker (guards against loading arbitrary JSONL).
AUDIT_KIND = "splitsim-audit"

#: Conventional file name inside a run directory.
AUDIT_FILE = "audit.jsonl"

#: Default epoch width in simulated picoseconds (64 us).
DEFAULT_WINDOW_PS = 64 * US

#: Name bucket for events executed without an owning component (matches
#: the determinism guard's defensive ``"?"`` bucket).
UNOWNED = "?"


def chunk_digest(prev: str, epoch: int, chunk: str) -> str:
    """Chained digest of one window: ``sha256(prev | epoch | chunk)``."""
    return hashlib.sha256(f"{prev}|{epoch}|{chunk}".encode()).hexdigest()


def timeline_digest(name: str, timestamps: List[int]) -> str:
    """SHA-256 of one component's ``name:ts,ts,...;`` event timeline."""
    payload = name + ":" + ",".join(map(str, timestamps)) + ";"
    return hashlib.sha256(payload.encode()).hexdigest()


def fold_root(payloads: Dict[str, str]) -> str:
    """The golden fold: sha256 over payloads in sorted-name order.

    ``payloads`` maps component name to its full ``name:ts,ts,...;``
    timeline payload; components with an empty timeline must already be
    absent (the guard only folds components that executed events).
    """
    digest = hashlib.sha256()
    for name in sorted(payloads):
        digest.update(payloads[name].encode())
    return digest.hexdigest()


@dataclass
class AuditRow:
    """One component's closed window: event count plus chained digest."""

    comp: str
    epoch: int
    n: int          # events executed in this window
    digest: str     # chained: sha256(prev_digest | epoch | "ts,ts,...")
    t0: int         # first event timestamp in the window
    t1: int         # last event timestamp in the window

    def to_wire(self) -> dict:
        """Compact dict for heartbeat piggyback / result shipping."""
        return {"e": self.epoch, "n": self.n, "d": self.digest,
                "t0": self.t0, "t1": self.t1}

    @classmethod
    def from_wire(cls, comp: str, w: dict) -> "AuditRow":
        return cls(comp=comp, epoch=w["e"], n=w["n"], digest=w["d"],
                   t0=w["t0"], t1=w["t1"])


class ComponentAuditor:
    """Streaming per-component window state.

    The hot path is :attr:`buf` ``.append`` — installed directly as (or
    chained into) the kernel's per-event ``queue.trace`` hook, one list
    append per event whether the run asked for a digest, a ledger, or
    both.  Window splitting, digest chaining, and payload accumulation
    all happen in batch at flush points (sync rounds / heartbeats / run
    end) over the buffered, already-sorted timestamps.
    """

    __slots__ = ("name", "window_ps", "buf", "rows", "chunks", "_prev",
                 "_taken")

    def __init__(self, name: str, window_ps: int = DEFAULT_WINDOW_PS) -> None:
        if window_ps <= 0:
            raise ValueError("window_ps must be positive")
        self.name = name
        self.window_ps = window_ps
        self.buf: List[int] = []       # pending timestamps (nondecreasing)
        self.rows: List[AuditRow] = []
        self.chunks: List[str] = []    # closed-window timestamp text
        self._prev = ""                # chain seed for the next window
        self._taken = 0                # rows already shipped via take_rows

    def _flush_below(self, limit: Optional[int]) -> None:
        """Close every complete window strictly below ``limit`` (None=all).

        ``buf`` is trimmed in place — installed trace hooks hold a bound
        ``buf.append``, so the list's identity must never change.
        """
        buf = self.buf
        if not buf:
            return
        if limit is None:
            closed = buf[:]
            del buf[:]
        else:
            cut = bisect_left(buf, limit)
            if not cut:
                return
            closed = buf[:cut]
            del buf[:cut]
        w = self.window_ps
        i, n = 0, len(closed)
        while i < n:
            epoch = closed[i] // w
            upper = (epoch + 1) * w
            j = i
            while j < n and closed[j] < upper:
                j += 1
            group = closed[i:j]
            chunk = ",".join(map(str, group))
            self._prev = chunk_digest(self._prev, epoch, chunk)
            self.rows.append(AuditRow(self.name, epoch, j - i, self._prev,
                                      group[0], group[-1]))
            self.chunks.append(chunk)
            i = j

    def flush_closed(self) -> None:
        """Close windows known complete: everything below the newest
        event's window (per-component timestamps are nondecreasing, so no
        earlier window can gain events)."""
        buf = self.buf
        if not buf:
            return
        limit = (buf[-1] // self.window_ps) * self.window_ps
        if limit > buf[0]:
            self._flush_below(limit)

    def finalize(self) -> None:
        """Close the trailing window at run end."""
        self._flush_below(None)

    def take_rows(self) -> List[dict]:
        """Rows closed since the previous take (heartbeat piggyback)."""
        rows = self.rows
        if self._taken >= len(rows):
            return []
        fresh = [r.to_wire() for r in rows[self._taken:]]
        self._taken = len(rows)
        return fresh

    @property
    def events(self) -> int:
        return sum(r.n for r in self.rows) + len(self.buf)

    def payload(self) -> str:
        """The exact golden-fold payload: ``name:ts,ts,...;``."""
        return self.name + ":" + ",".join(self.chunks) + ";"

    def timeline_digest(self) -> str:
        """:func:`timeline_digest` of the finalized events (any count)."""
        return hashlib.sha256(self.payload().encode()).hexdigest()

    def digest(self) -> Optional[str]:
        """Timeline digest, None without events (the fold skips those)."""
        return self.timeline_digest() if self.chunks else None


class AuditRecorder:
    """In-process auditor over a :class:`~repro.parallel.simulation.Simulation`.

    A round observer: attach via :meth:`Experiment.enable_audit` (which
    registers it on ``Simulation.observers``).  :meth:`start` installs a
    per-event trace hook on every distinct event queue — one
    ``list.append`` per component in strict mode (private queues), a
    dict-dispatch in fast mode (shared queue) — *chaining* any
    pre-installed hook so the determinism guard's own tracer keeps working
    with auditing on.  :meth:`on_round` closes complete windows every
    ``interval_rounds`` sync rounds; :meth:`finish` restores the hooks and
    closes the trailing windows.
    """

    def __init__(self, components, window_ps: int = DEFAULT_WINDOW_PS,
                 interval_rounds: int = 64,
                 meta: Optional[dict] = None) -> None:
        if interval_rounds <= 0:
            raise ValueError("interval_rounds must be positive")
        self.components = list(components)
        self.window_ps = window_ps
        self.interval_rounds = interval_rounds
        self.meta = dict(meta or {})
        self.until_ps = 0
        self.auditors: Dict[str, ComponentAuditor] = {
            c.name: ComponentAuditor(c.name, window_ps)
            for c in self.components}
        self._installed: List[Tuple[object, Optional[Callable]]] = []

    # -- hook management ---------------------------------------------------

    def _chain(self, fn: Callable, prev: Optional[Callable]) -> Callable:
        if prev is None:
            return fn
        def hook(owner, ts, _fn=fn, _prev=prev):
            _fn(owner, ts)
            _prev(owner, ts)
        return hook

    def _shared_hook(self, comps) -> Callable:
        """Dispatch-by-owner hook for a queue serving many components."""
        appends = {c: self.auditors[c.name].buf.append for c in comps}
        def hook(owner, ts, _appends=appends):
            append = _appends.get(owner)
            if append is None:
                name = owner.name if owner is not None else UNOWNED
                auditor = self.auditors.setdefault(
                    name, ComponentAuditor(name, self.window_ps))
                append = _appends[owner] = auditor.buf.append
            append(ts)
        return hook

    def start(self, until_ps: int) -> None:
        """Install trace hooks (call after wiring, before the run)."""
        self.until_ps = until_ps
        by_queue: Dict[int, Tuple[object, list]] = {}
        for c in self.components:
            by_queue.setdefault(id(c.queue), (c.queue, []))[1].append(c)
        for queue, comps in by_queue.values():
            prev = queue.trace
            if len(comps) == 1:
                append = self.auditors[comps[0].name].buf.append
                fn = lambda owner, ts, _a=append: _a(ts)
            else:
                fn = self._shared_hook(comps)
            queue.trace = self._chain(fn, prev)
            self._installed.append((queue, prev))

    def on_round(self, rounds: int, done: bool) -> None:
        """Strict-coordinator flush point: close complete windows."""
        if not rounds % self.interval_rounds:
            for auditor in self.auditors.values():
                auditor.flush_closed()

    def finish(self) -> None:
        """Restore hooks and close the trailing windows (idempotent)."""
        for queue, prev in self._installed:
            queue.trace = prev
        self._installed = []
        for auditor in self.auditors.values():
            auditor.finalize()

    # -- results -----------------------------------------------------------

    def _active(self) -> Dict[str, ComponentAuditor]:
        return {n: a for n, a in self.auditors.items() if a.chunks}

    def root_digest(self) -> str:
        """The golden fold over every audited component's payload."""
        return fold_root({n: a.payload() for n, a in self._active().items()})

    def component_digests(self) -> Dict[str, str]:
        return {n: a.digest() for n, a in self._active().items()}

    def sorted_rows(self) -> List[AuditRow]:
        comp_index = {n: i for i, n in enumerate(sorted(self.auditors))}
        rows = [r for a in self.auditors.values() for r in a.rows]
        rows.sort(key=lambda r: (r.epoch, comp_index[r.comp]))
        return rows

    def to_ledger(self, mode: str = "strict") -> "AuditLedger":
        """In-memory ledger (no file round trip) for diffing in tests."""
        header, rows, final = self._document(mode)
        return AuditLedger(header, rows, final)

    def _document(self, mode: str):
        rows = self.sorted_rows()
        final = {"final": True, "root": self.root_digest(),
                 "components": self.component_digests(),
                 "events": sum(a.events for a in self.auditors.values())}
        header = make_header(mode=mode, until_ps=self.until_ps,
                             window_ps=self.window_ps,
                             components=sorted(self.auditors),
                             meta=self.meta)
        return header, rows, final

    def save(self, path: str, mode: str = "strict") -> dict:
        """Persist as columnar JSONL; returns the header."""
        header, rows, final = self._document(mode)
        write_audit(path, header, rows, final)
        return header


# -- multiprocess collection ---------------------------------------------------

def pack_payload(payload: str) -> bytes:
    """Compress a component payload for the result queue."""
    return zlib.compress(payload.encode())


def unpack_payload(blob: bytes) -> str:
    return zlib.decompress(blob).decode()


class MpAuditCollector:
    """Parent-side ledger assembly for multiprocess runs.

    Children flush closed windows on telemetry heartbeats
    (:meth:`note` consumes the ``Heartbeat.audit`` piggyback) and ship
    the authoritative full row list, component digest, and compressed
    payload in their result (:meth:`note_result`); heartbeat rows keep
    the ledger partially populated when a child crashes before its
    result.  The root is computed — exactly the in-process golden fold —
    only when every component's full payload arrived; otherwise the
    ledger is marked partial with a ``null`` root.
    """

    def __init__(self, components: List[str], until_ps: int,
                 window_ps: int = DEFAULT_WINDOW_PS,
                 meta: Optional[dict] = None) -> None:
        self.components = list(components)
        self.until_ps = until_ps
        self.window_ps = window_ps
        self.meta = dict(meta or {})
        self._rows: Dict[Tuple[str, int], AuditRow] = {}
        self._digests: Dict[str, str] = {}
        self._payloads: Dict[str, str] = {}
        self._events: Dict[str, int] = {}
        self._complete: Set[str] = set()

    def note(self, hb) -> None:
        """Consume one heartbeat's piggybacked closed-window rows."""
        payload = getattr(hb, "audit", None)
        if not payload:
            return
        for w in payload:
            row = AuditRow.from_wire(hb.comp, w)
            self._rows[(row.comp, row.epoch)] = row

    def note_result(self, res) -> None:
        """Consume one child's authoritative audit result (if any)."""
        aud = getattr(res, "audit", None)
        if aud is None:
            return
        for w in aud.get("rows", ()):
            row = AuditRow.from_wire(res.name, w)
            self._rows[(row.comp, row.epoch)] = row
        if aud.get("partial"):
            return
        self._complete.add(res.name)
        self._events[res.name] = aud.get("events", 0)
        if aud.get("digest") is None:
            # zero executed events: the guard's fold skips this component
            # entirely, so its empty "name:;" payload must not fold either
            return
        self._digests[res.name] = aud["digest"]
        blob = aud.get("payload_z")
        if blob is not None:
            self._payloads[res.name] = unpack_payload(blob)

    @property
    def partial(self) -> bool:
        return bool(set(self.components) - self._complete)

    def root_digest(self) -> Optional[str]:
        """The golden fold, or None while any component's payload is
        missing (crashed child / undelivered result)."""
        if self.partial:
            return None
        return fold_root(dict(self._payloads))

    def sorted_rows(self) -> List[AuditRow]:
        comp_index = {n: i for i, n in enumerate(self.components)}
        return sorted(self._rows.values(),
                      key=lambda r: (r.epoch, comp_index.get(r.comp, 1 << 30),
                                     r.comp))

    def to_ledger(self) -> "AuditLedger":
        header, rows, final = self._document()
        return AuditLedger(header, rows, final)

    def _document(self):
        rows = self.sorted_rows()
        root = self.root_digest()
        final = {"final": True, "root": root,
                 "components": dict(self._digests),
                 "events": sum(self._events.values()) if not self.partial
                 else sum(r.n for r in rows)}
        if self.partial:
            final["partial"] = True
        header = make_header(mode="mp", until_ps=self.until_ps,
                             window_ps=self.window_ps,
                             components=list(self.components),
                             meta=self.meta)
        return header, rows, final

    def save(self, path: str) -> dict:
        header, rows, final = self._document()
        write_audit(path, header, rows, final)
        return header


# -- persistence ---------------------------------------------------------------

def make_header(*, mode: str, until_ps: int, window_ps: int,
                components: List[str], meta: Optional[dict] = None) -> dict:
    return {"kind": AUDIT_KIND, "schema": AUDIT_SCHEMA, "mode": mode,
            "until_ps": until_ps, "window_ps": window_ps,
            "components": list(components), "meta": dict(meta or {})}


def write_audit(path: str, header: dict, rows: List[AuditRow],
                final: dict) -> None:
    """Write header, columnar rows, and the final trailer as JSONL."""
    comp_index = {c: i for i, c in enumerate(header["components"])}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in rows:
            fh.write(json.dumps({
                "c": comp_index[row.comp], "e": row.epoch, "n": row.n,
                "d": row.digest, "t0": row.t0, "t1": row.t1}) + "\n")
        fh.write(json.dumps(final) + "\n")


class AuditLedger:
    """A loaded (or in-memory) audit document."""

    def __init__(self, header: dict, rows: List[AuditRow],
                 final: Optional[dict]) -> None:
        self.header = header
        self.rows = rows
        self.final = final

    @property
    def mode(self) -> str:
        return self.header.get("mode", "strict")

    @property
    def until_ps(self) -> int:
        return self.header.get("until_ps", 0)

    @property
    def window_ps(self) -> int:
        return self.header.get("window_ps", DEFAULT_WINDOW_PS)

    @property
    def components(self) -> List[str]:
        return list(self.header.get("components", []))

    @property
    def root(self) -> Optional[str]:
        return (self.final or {}).get("root")

    @property
    def partial(self) -> bool:
        return bool((self.final or {}).get("partial"))

    def component_digests(self) -> Dict[str, str]:
        return dict((self.final or {}).get("components", {}))

    def by_key(self) -> Dict[Tuple[int, str], AuditRow]:
        return {(r.epoch, r.comp): r for r in self.rows}

    def window_bounds(self, epoch: int) -> Tuple[int, int]:
        w = self.window_ps
        return epoch * w, (epoch + 1) * w


def load_audit(path: str) -> AuditLedger:
    """Load and validate an ``audit.jsonl`` document.

    Raises :class:`ValueError` on a malformed or wrong-kind document and
    propagates :class:`OSError` for unreadable paths.
    """
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty audit document")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: bad audit header: {exc}") from None
    if header.get("kind") != AUDIT_KIND:
        raise ValueError(f"{path}: not an audit ledger "
                         f"(kind={header.get('kind')!r})")
    if header.get("schema") != AUDIT_SCHEMA:
        raise ValueError(f"{path}: audit schema "
                         f"{header.get('schema')!r} != {AUDIT_SCHEMA}")
    comps = header.get("components", [])
    rows: List[AuditRow] = []
    final = None
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            doc = json.loads(line)
            if doc.get("final"):
                final = doc
                continue
            rows.append(AuditRow(
                comp=comps[doc["c"]], epoch=doc["e"], n=doc["n"],
                digest=doc["d"], t0=doc["t0"], t1=doc["t1"]))
        except (json.JSONDecodeError, KeyError, IndexError,
                TypeError) as exc:
            raise ValueError(
                f"{path}:{lineno}: corrupt audit row: {exc}") from None
    return AuditLedger(header, rows, final)


def resolve_audit_path(path: str) -> str:
    """Map a run directory to its ``audit.jsonl`` (files pass through)."""
    if os.path.isdir(path):
        return os.path.join(path, AUDIT_FILE)
    return path


# -- cross-run diff ------------------------------------------------------------

#: Diff verdicts.
DIFF_IDENTICAL = "identical"
DIFF_DIVERGED = "diverged"
DIFF_INCOMPARABLE = "incomparable"


@dataclass
class AuditDivergence:
    """The first (epoch, component) where two ledgers disagree."""

    epoch: int
    comp: str
    row_a: Optional[AuditRow]
    row_b: Optional[AuditRow]
    window: Tuple[int, int] = (0, 0)

    def describe(self) -> str:
        lo, hi = self.window
        lines = [f"first divergence: epoch {self.epoch} "
                 f"[{fmt_time(lo)} .. {fmt_time(hi)}) "
                 f"component {self.comp}"]
        for label, row in (("A", self.row_a), ("B", self.row_b)):
            if row is None:
                lines.append(f"  {label}: (no events in this window)")
            else:
                lines.append(
                    f"  {label}: {row.n} events, first {fmt_time(row.t0)}, "
                    f"last {fmt_time(row.t1)}, digest {row.digest[:16]}...")
        return "\n".join(lines)


@dataclass
class AuditDiff:
    """Outcome of walking two ledgers against each other."""

    status: str
    problems: List[str] = field(default_factory=list)
    divergence: Optional[AuditDivergence] = None
    root_a: Optional[str] = None
    root_b: Optional[str] = None
    rows_compared: int = 0
    #: components whose end-of-run timeline digests differ (may be wider
    #: than the first divergence — chaining localizes the earliest only)
    mismatched_components: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.status == DIFF_IDENTICAL

    def to_dict(self) -> dict:
        out = {"status": self.status, "problems": list(self.problems),
               "roots": {"a": self.root_a, "b": self.root_b},
               "rows_compared": self.rows_compared,
               "mismatched_components": list(self.mismatched_components)}
        if self.divergence is not None:
            d = self.divergence
            out["first_divergence"] = {
                "epoch": d.epoch, "component": d.comp,
                "window_ps": list(d.window),
                "a": d.row_a.to_wire() if d.row_a else None,
                "b": d.row_b.to_wire() if d.row_b else None,
            }
        return out


def diff_ledgers(a: AuditLedger, b: AuditLedger) -> AuditDiff:
    """Walk two ledgers to the first divergent (epoch, component).

    Rows are compared in (epoch, component) order; the first key present
    in only one ledger, or present in both with a different digest or
    event count, is the divergence.  Ledgers recorded with different
    epoch widths cannot be row-compared (status ``incomparable``).
    """
    problems: List[str] = []
    if a.window_ps != b.window_ps:
        problems.append(f"window_ps differs: {a.window_ps} vs "
                        f"{b.window_ps} — re-record with matching --audit "
                        "windows to compare")
        return AuditDiff(DIFF_INCOMPARABLE, problems,
                         root_a=a.root, root_b=b.root)
    if a.until_ps != b.until_ps:
        problems.append(f"until_ps differs: {a.until_ps} vs {b.until_ps} "
                        "(runs of different duration diverge trivially)")
    only_a = set(a.components) - set(b.components)
    only_b = set(b.components) - set(a.components)
    if only_a:
        problems.append(f"components only in A: {sorted(only_a)}")
    if only_b:
        problems.append(f"components only in B: {sorted(only_b)}")

    rows_a, rows_b = a.by_key(), b.by_key()
    divergence = None
    compared = 0
    for key in sorted(set(rows_a) | set(rows_b)):
        ra, rb = rows_a.get(key), rows_b.get(key)
        if ra is not None and rb is not None and ra.digest == rb.digest \
                and ra.n == rb.n:
            compared += 1
            continue
        epoch, comp = key
        divergence = AuditDivergence(epoch=epoch, comp=comp, row_a=ra,
                                     row_b=rb,
                                     window=a.window_bounds(epoch))
        break

    da, db = a.component_digests(), b.component_digests()
    mismatched = sorted(n for n in set(da) | set(db)
                        if da.get(n) != db.get(n))
    roots_differ = (a.root is not None and b.root is not None
                    and a.root != b.root)
    status = DIFF_DIVERGED if (divergence is not None or roots_differ) \
        else DIFF_IDENTICAL
    return AuditDiff(status, problems, divergence,
                     root_a=a.root, root_b=b.root, rows_compared=compared,
                     mismatched_components=mismatched)
