"""Hash-consing kernel: interned terms with cached node metadata.

Every UniNomial verdict bottoms out in structural operations on
:mod:`repro.core.uninomial` / :mod:`repro.core.normalize` trees — hashing
them into congruence-closure tables, comparing them during AC matching,
recomputing free-variable sets and alpha-canonical keys.  As plain frozen
dataclasses those operations are O(term size) *every time*; under the
ROADMAP's heavy-traffic north star they dominate the profile (the
pre-kernel profile spends ~45% of prover time inside ``builtins.hash``).

This module provides the egg-style fix (cf. the e-graph literature behind
:mod:`repro.core.congruence`): **hash-consing**.  The :func:`interned`
class decorator reroutes a frozen dataclass's constructor through a
per-class table so that structurally equal constructions return the *same*
object:

* ``TVar("x", s) is TVar("x", s)`` — pointer equality coincides with
  structural equality for canonical nodes, so ``__eq__`` answers identity
  checks first and two canonical nodes are unequal without recursion;
* ``__hash__`` is computed once and stored on the node (children are
  themselves interned, so the first computation is O(children), not
  O(subtree));
* ``__str__`` and ``schema`` lookups are likewise computed once per node;
* per-node semantic metadata — free-variable frozensets, alpha-canonical
  keys, proposition flags — is attached by the defining modules through
  the same one-slot-per-node convention (attributes stashed with
  ``object.__setattr__`` on first use; see ``term_free_vars`` and
  ``term_alpha_key``).

Canonical nodes live in per-class strong dict tables, egg-style: once a
node wins its slot it stays canonical for the life of the process, and
the table can never "evict" a live node (which would let a second
canonical twin appear and break the pointer-equality invariant).  Table
keys identify children by ``id`` — sound because a table entry keeps its
children alive, so their ids cannot be reused.  (Earlier revisions used
``weakref.WeakValueDictionary`` here; the strong table drops the
KeyedRef allocation and deref from the constructor — the single largest
line in the cold prover profile.)  What keeps the tables small is the
normalizer: it builds intermediate clauses as plain tuples and interns
only refined normal forms, so throwaway clauses never win a slot.

Pickling re-interns: interned classes reduce to ``(cls, field_values)``,
so a term crossing the batch service's process boundary is reconstructed
through the constructor and lands on the receiving process's canonical
node.  Instances restored through other paths (or carrying unhashable
payloads) simply stay un-canonical: they still compare structurally, they
just do not get the pointer fast paths.

Thread safety: the intern tables and every :class:`KernelLRU` take a lock
around their critical sections; racing constructors may build a transient
duplicate, but only the table winner is ever returned (and only the
winner is marked canonical).  The constructor's table *probe* is
lock-free, so the hit counter is approximate under concurrency; the
canonical-node count is exact.

The module also hosts :class:`KernelLRU`, the bounded thread-safe
memo table used by the kernel's caching layers (``normalize``,
``denote_closed``, alpha-key reprs), and the aggregate counters
(:func:`intern_stats`, :func:`kernel_stats`) surfaced through
``ProofStats`` and the CLI's ``check --verbose``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import fields as _dataclass_fields
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "KernelLRU",
    "clear_kernel_caches",
    "intern_stats",
    "interned",
    "kernel_stats",
]


# ---------------------------------------------------------------------------
# Per-class interning machinery
# ---------------------------------------------------------------------------

_LOCK = threading.Lock()

#: canonical-node marker attribute; present (and True) only on instances
#: that won their intern-table slot.
_READY = "_hc_ready"


class _ClassInfo:
    """Bookkeeping for one interned class."""

    __slots__ = ("table", "field_names", "canonize", "orig_init")

    def __init__(self, field_names: Tuple[str, ...],
                 canonize: Optional[Callable], orig_init: Callable) -> None:
        self.table: Dict[Any, Any] = {}
        self.field_names = field_names
        self.canonize = canonize
        self.orig_init = orig_init


_CLASSES: Dict[type, _ClassInfo] = {}
_INTERN_HITS = 0
_INTERN_MISSES = 0


def _canon(value: Any) -> Any:
    """Replace an interned-class instance by its canonical node."""
    info = _CLASSES.get(type(value))
    if info is not None:
        if value.__dict__.get(_READY):
            return value
        # A structurally valid but un-canonical instance (e.g. restored
        # through a legacy pickle path): rebuild through the constructor.
        return type(value)(*[getattr(value, n) for n in info.field_names])
    if type(value) is tuple:
        return tuple(_canon(v) for v in value)
    return value


def _key_of(value: Any) -> Any:
    """Intern-table key of one constructor argument.

    Canonical children are identified by ``id`` (unique while alive — and
    a live table entry keeps its children alive); strings by themselves;
    tuples recursively; any other value behind a ``("v", ...)`` tag so a
    raw integer can never collide with a child's id.
    """
    t = type(value)
    if t in _CLASSES and value.__dict__.get(_READY):
        return id(value)
    if t is tuple:
        return tuple(_key_of(v) for v in value)
    if t is str:
        return value
    return ("v", value)


def _fast_tuple_key(value: tuple) -> Optional[tuple]:
    """Key of a tuple argument whose members are all already canonical.

    Returns ``None`` when a member would need canonicalizing first; the
    constructor then falls back to the slow path.
    """
    parts: list = []
    for x in value:
        t = x.__class__
        if t in _CLASSES:
            if _READY in x.__dict__:
                parts.append(id(x))
            else:
                return None
        elif t is str:
            parts.append(x)
        elif t is tuple:
            kp = _fast_tuple_key(x)
            if kp is None:
                return None
            parts.append(kp)
        else:
            parts.append(("v", x))
    return tuple(parts)


def _bind(field_names: Tuple[str, ...], args: tuple,
          kwargs: dict) -> Optional[tuple]:
    """Normalize positional/keyword constructor arguments to field order.

    Returns ``None`` for arities the dataclass ``__init__`` would reject
    (including the zero-argument ``__new__`` pickling uses) — the caller
    then falls back to an un-interned instance and lets ``__init__``
    raise, preserving the original error behaviour.
    """
    n = len(field_names)
    if not kwargs:
        return args if len(args) == n else None
    if len(args) > n:
        return None
    vals = list(args)
    consumed = 0
    for name in field_names[len(args):]:
        if name not in kwargs:
            return None
        vals.append(kwargs[name])
        consumed += 1
    if consumed != len(kwargs):
        return None  # unknown or duplicate keyword
    return tuple(vals)


def interned(cls=None, *, canonize: Optional[Callable] = None):
    """Class decorator hash-consing a frozen dataclass.

    Apply *above* ``@dataclass(frozen=True)``.  ``canonize``, when given,
    maps the bound field-value tuple to its canonical form before
    interning (e.g. sorting an AC operator's operand tuple), so the
    canonical order is established once at construction.
    """
    if cls is None:
        return lambda c: interned(c, canonize=canonize)

    field_names = tuple(f.name for f in _dataclass_fields(cls))
    n_fields = len(field_names)
    info = _ClassInfo(field_names, canonize, cls.__init__)
    table = info.table
    orig_eq = cls.__eq__
    orig_hash = cls.__hash__
    # Wrap any non-default __str__ (own or inherited, e.g. the shared
    # Schema.__str__) with a per-node cache.
    orig_str = cls.__str__ if cls.__str__ is not object.__str__ else None

    def _slow_new(kls, args, kwargs):
        """Full constructor path: keyword args, wrong arity, un-canonical
        or unhashable children.  Canonicalizes children and builds the
        table key in one pass."""
        global _INTERN_HITS, _INTERN_MISSES
        vals = args if not kwargs and len(args) == n_fields \
            else _bind(field_names, args, kwargs)
        if vals is None:
            return object.__new__(kls)
        # Canonical interned children key by id; primitives by tagged
        # value (an id is an int, so raw numbers must not collide with
        # it); everything else by the value itself.
        canon_vals: list = []
        key_parts: list = []
        for v in vals:
            t = type(v)
            child_info = _CLASSES.get(t)
            if child_info is not None:
                if not v.__dict__.get(_READY):
                    v = t(*[getattr(v, name)
                            for name in child_info.field_names])
                    if not v.__dict__.get(_READY):
                        # Child cannot be canonicalized (unhashable
                        # payload): the parent stays un-interned too.
                        return object.__new__(kls)
                canon_vals.append(v)
                key_parts.append(id(v))
            elif t is tuple:
                v = _canon(v)
                canon_vals.append(v)
                key_parts.append(_key_of(v))
            else:
                canon_vals.append(v)
                key_parts.append(v if t is str else ("v", v))
        vals = tuple(canon_vals)
        if canonize is not None:
            vals = canonize(vals)
            key_parts = [_key_of(v) for v in vals]
        key = tuple(key_parts)
        try:
            inst = table.get(key)
        except TypeError:
            # Unhashable payload (exotic constant): stay un-interned;
            # __init__ below runs the original dataclass initializer.
            return object.__new__(kls)
        if inst is not None:
            _INTERN_HITS += 1
            return inst
        inst = object.__new__(kls)
        info.orig_init(inst, *vals)
        with _LOCK:
            winner = table.get(key)
            if winner is None:
                object.__setattr__(inst, _READY, True)
                table[key] = inst
                _INTERN_MISSES += 1
                winner = inst
            else:
                _INTERN_HITS += 1
        return winner

    def __new__(kls, *args, **kwargs):
        global _INTERN_HITS, _INTERN_MISSES
        if kls is not cls:
            return object.__new__(kls)
        if kwargs or len(args) != n_fields:
            return _slow_new(kls, args, kwargs)
        # Hot path: positional construction from already-canonical
        # children.  Builds only the table key — on a hit no argument
        # tuple is materialized and no child is re-canonicalized.
        key_parts: list = []
        for v in args:
            t = v.__class__
            if t in _CLASSES:
                if _READY in v.__dict__:
                    key_parts.append(id(v))
                else:
                    return _slow_new(kls, args, kwargs)
            elif t is str:
                key_parts.append(v)
            elif t is tuple:
                kp = _fast_tuple_key(v)
                if kp is None:
                    return _slow_new(kls, args, kwargs)
                key_parts.append(kp)
            else:
                key_parts.append(("v", v))
        vals = args
        if canonize is not None:
            vals = canonize(args)
            if len(vals) != n_fields or any(
                    a is not b for a, b in zip(vals, args)):
                key_parts = [_key_of(v) for v in vals]
        key = tuple(key_parts)
        try:
            # Lock-free probe: under the GIL this is one dict read, and
            # a stale miss only costs a re-derivation resolved under the
            # insert lock below.
            inst = table.get(key)
        except TypeError:
            # Unhashable payload (exotic constant): stay un-interned.
            return object.__new__(kls)
        if inst is not None:
            _INTERN_HITS += 1
            return inst
        inst = object.__new__(kls)
        info.orig_init(inst, *vals)
        with _LOCK:
            winner = table.get(key)
            if winner is None:
                object.__setattr__(inst, _READY, True)
                table[key] = inst
                _INTERN_MISSES += 1
                winner = inst
            else:
                _INTERN_HITS += 1
        return winner

    def __init__(self, *args, **kwargs):
        if self.__dict__.get(_READY):
            return  # canonical node: fields were set inside __new__
        info.orig_init(self, *args, **kwargs)

    def __eq__(self, other):
        if self is other:
            return True
        if self.__class__ is not other.__class__:
            return NotImplemented
        if self.__dict__.get(_READY) and other.__dict__.get(_READY):
            return False  # two distinct canonical nodes differ structurally
        return orig_eq(self, other)

    def __hash__(self):
        h = self.__dict__.get("_hc_hash")
        if h is None:
            h = orig_hash(self)
            object.__setattr__(self, "_hc_hash", h)
        return h

    def __reduce__(self):
        return (self.__class__,
                tuple(getattr(self, n) for n in field_names))

    cls.__new__ = __new__
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    if orig_str is not None:
        def __str__(self):
            s = self.__dict__.get("_hc_str")
            if s is None:
                s = orig_str(self)
                object.__setattr__(self, "_hc_str", s)
            return s
        cls.__str__ = __str__
    schema_prop = cls.__dict__.get("schema")
    if isinstance(schema_prop, property) and schema_prop.fget is not None:
        orig_fget = schema_prop.fget

        def _schema(self):
            v = self.__dict__.get("_hc_schema")
            if v is None:
                v = orig_fget(self)
                object.__setattr__(self, "_hc_schema", v)
            return v
        cls.schema = property(_schema)
    _CLASSES[cls] = info
    return cls


# ---------------------------------------------------------------------------
# Bounded, thread-safe memo tables
#
# Per-node *metadata* caching does not live here: the defining modules
# stash computed values (free vars, alpha keys, flags) directly on the
# node with ``object.__setattr__`` — sound because nodes are immutable,
# canonical or not.
# ---------------------------------------------------------------------------

class KernelLRU:
    """A bounded LRU memo with hit/miss counters (thread-safe).

    Used for the kernel's function-level caches: ``normalize`` results,
    ``denote_closed`` denotations, alpha-key reprs.  Keys holding strong
    references to interned nodes keep those nodes canonical for as long
    as the memo entry lives.  Unhashable keys are silently uncacheable
    (``get`` misses, ``put`` is a no-op) so exotic payloads degrade to
    the uncached behaviour instead of raising.
    """

    def __init__(self, maxsize: int, name: str) -> None:
        if maxsize <= 0:
            raise ValueError("KernelLRU maxsize must be positive")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        #: monotonic counters — never zeroed by :meth:`reset` (nor by
        #: :meth:`clear`), so delta-based accounting (``after - before``)
        #: stays correct even when a measurement-window reset lands
        #: between the two reads.
        self.lifetime_hits = 0
        self.lifetime_misses = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        _KERNEL_CACHES.append(self)

    def get(self, key: Any) -> Optional[Any]:
        try:
            with self._lock:
                value = self._data.get(key)
                if value is None:
                    self.misses += 1
                    self.lifetime_misses += 1
                    return None
                self._data.move_to_end(key)
                self.hits += 1
                self.lifetime_hits += 1
                return value
        except TypeError:
            with self._lock:
                self.misses += 1
                self.lifetime_misses += 1
            return None

    def put(self, key: Any, value: Any) -> None:
        try:
            with self._lock:
                self._data[key] = value
                self._data.move_to_end(key)
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
        except TypeError:
            pass

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def reset(self) -> Dict[str, float]:
        """Zero the window counters *without* dropping entries, atomically.

        The race-safe way to start a measurement window over a warm
        cache (dropping entries would also change what is measured);
        consumers that want cold caches use :func:`clear_kernel_caches`.

        The read of the outgoing window and its zeroing happen under one
        lock acquisition, and the pre-reset snapshot (including the
        monotonic ``lifetime_*`` counters) is returned — so no hit can
        ever fall between "snapshot taken" and "counters zeroed".  Delta
        consumers (``Session.metrics``, the pipeline's per-verdict
        kernel counters) difference the lifetime counters, which a reset
        never touches, so a reset landing between their two reads cannot
        under-report.
        """
        with self._lock:
            snap = self._snapshot_locked()
            self.hits = 0
            self.misses = 0
        return snap

    def _snapshot_locked(self) -> Dict[str, float]:
        hits, misses, size = self.hits, self.misses, len(self._data)
        total = hits + misses
        return {"hits": hits, "misses": misses, "size": size,
                "hit_rate": hits / total if total else 0.0,
                "lifetime_hits": self.lifetime_hits,
                "lifetime_misses": self.lifetime_misses}

    def snapshot(self) -> Dict[str, float]:
        """Point-in-time counters, read consistently under the lock.

        Unlike reading the ``hits``/``misses`` attributes directly, the
        tuple (hits, misses, size, lifetime_hits, lifetime_misses) is
        coherent — no writer can move one of them mid-read — which is
        what delta-based accounting (the pipeline's per-verdict kernel
        counters, the metrics registry's snapshots) needs.  The
        ``lifetime_*`` entries are monotonic: neither :meth:`reset` nor
        :meth:`clear` zeroes them.
        """
        with self._lock:
            return self._snapshot_locked()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return self.snapshot()


_KERNEL_CACHES: List[KernelLRU] = []


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def intern_stats() -> Dict[str, int]:
    """Intern-table counters: constructor hits/misses and live node count.

    ``interned_nodes`` counts canonical nodes in the tables;
    ``intern_misses`` is the total number of canonical nodes ever
    created.  ``intern_hits`` is incremented on the lock-free
    constructor probe, so under concurrent construction it is
    approximate (may undercount); node creation is always counted under
    the lock and stays exact.
    """
    with _LOCK:
        hits, misses = _INTERN_HITS, _INTERN_MISSES
    live = sum(len(info.table) for info in _CLASSES.values())
    return {"intern_hits": hits, "intern_misses": misses,
            "interned_nodes": live}


def kernel_stats() -> Dict[str, Any]:
    """One dict with every kernel counter (interning + memo tables)."""
    stats: Dict[str, Any] = dict(intern_stats())
    for cache in _KERNEL_CACHES:
        for key, value in cache.stats().items():
            stats[f"{cache.name}_{key}"] = value
    return stats


def clear_kernel_caches() -> None:
    """Reset every memo table and the intern hit/miss counters.

    The intern *tables* themselves are deliberately not cleared: dropping
    a live canonical node's table entry would let a structurally equal
    twin be interned later, breaking pointer-equality ⇔ structural
    equality.  Benchmarks call this between runs for cold-cache timings.
    """
    global _INTERN_HITS, _INTERN_MISSES
    for cache in _KERNEL_CACHES:
        cache.clear()
    with _LOCK:
        _INTERN_HITS = 0
        _INTERN_MISSES = 0
