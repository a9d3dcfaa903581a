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
* the hash is the node's identity (``object.__hash__``, in C): a
  canonical node is the only one of its structure, so identity hashing
  agrees with structural equality; an un-canonical node (see below)
  hashes by identity too, so a memo keyed on it is hit by that object
  only;
* the constructor is generated, one compiled template per field count:
  it probes the class's table with the argument tuple itself as the key
  and, on a miss, sets the fields once with ``object.__setattr__`` — the
  dataclass ``__init__`` never runs a second time;
* ``__repr__`` prints the dataclass text without the dataclass recursion
  guard (an immutable DAG cannot contain itself), from the same
  per-arity templates;
* ``__str__`` and ``schema`` lookups are likewise computed once per node;
* per-node semantic metadata — free-variable frozensets, alpha-canonical
  keys, proposition flags — is attached by the defining modules through
  the same one-slot-per-node convention (attributes stashed with
  ``object.__setattr__`` on first use; see ``term_free_vars`` and
  ``term_alpha_key``).

Canonical nodes live in per-class strong dict tables, egg-style: once a
node wins its slot it stays canonical for the life of the process, and
the table can never "evict" a live node (which would let a second
canonical twin appear and break the pointer-equality invariant).  A
table key is the tuple of field values, holding only canonical children:
those hash and compare by identity, so key equality is exactly the
dataclass's structural equality, at C speed.  A key with an un-canonical
child never enters a table — the constructor canonicalizes such children
first, or gives up and builds an un-canonical node.  (Earlier revisions
used ``weakref.WeakValueDictionary`` here; the strong table drops the
KeyedRef allocation and deref from the constructor — the single largest
line in the cold prover profile.)  What keeps the tables small is the
normalizer: it builds intermediate clauses as plain tuples and interns
only refined normal forms, so throwaway clauses never win a slot.

Pickling re-interns: interned classes reduce to ``(cls, field_values)``,
so a term crossing the batch service's process boundary is reconstructed
through the constructor and lands on the receiving process's canonical
node.  Instances carrying unhashable payloads (or calls the dataclass
``__init__`` rejects, which raise its error unchanged) take the general
path, which runs that initializer: such nodes stay un-canonical — they
still compare structurally, they just do not get the pointer fast paths.
Because the generated constructor sets fields straight from its
arguments, :func:`interned` refuses classes with a ``__post_init__``, a
defaulted field, or a field that is not a plain positional ``__init__``
parameter.

Thread safety: the intern tables and every :class:`KernelLRU` take a lock
around their critical sections; racing constructors may build a transient
duplicate, but only the table winner is ever returned (and only the
winner is marked canonical, before it enters the table, so no thread can
see it unmarked).  The constructor's table *probe* is lock-free, so the
hit counter is approximate under concurrency; the canonical-node count
is exact.

The module also hosts :class:`KernelLRU`, the bounded thread-safe
memo table used by the kernel's caching layers (``normalize``,
``denote_closed``, alpha-key reprs), and the aggregate counters
(:func:`intern_stats`, :func:`kernel_stats`) surfaced through
``ProofStats`` and the CLI's ``check --verbose``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import MISSING, fields as _dataclass_fields
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

    __slots__ = ("cls", "table", "field_names", "canonize", "orig_init")

    def __init__(self, cls: type, field_names: Tuple[str, ...],
                 canonize: Optional[Callable]) -> None:
        self.cls = cls
        self.table: Dict[tuple, Any] = {}
        self.field_names = field_names
        self.canonize = canonize
        self.orig_init = cls.__init__


_CLASSES: Dict[type, _ClassInfo] = {}
_INTERN_HITS = 0
_INTERN_MISSES = 0

#: What :func:`_canon` returns for a value holding an interned node that
#: cannot be made canonical (an unhashable payload somewhere inside it).
_STUCK = object()


def _is_canonical(values: tuple) -> bool:
    """True iff no interned node in ``values`` (or in a tuple nested in
    it) is un-canonical — the condition for ``values`` to be a table key."""
    for v in values:
        t = v.__class__
        if t in _CLASSES:
            if _READY not in v.__dict__:
                return False
        elif t is tuple and not _is_canonical(v):
            return False
    return True


def _canon(value: Any) -> Any:
    """``value`` with every interned node in it replaced by its canonical
    node (rebuilt through the constructor), or ``_STUCK`` if one of them
    cannot be interned."""
    t = type(value)
    info = _CLASSES.get(t)
    if info is not None:
        if _READY not in value.__dict__:
            value = t(*[value.__dict__[n] for n in info.field_names])
            if _READY not in value.__dict__:
                return _STUCK
        return value
    if t is tuple:
        value = tuple([_canon(v) for v in value])
        if any(v is _STUCK for v in value):
            return _STUCK
    return value


def _bind(field_names: Tuple[str, ...], args: tuple,
          kwargs: dict) -> Optional[tuple]:
    """Normalize positional/keyword constructor arguments to field order.

    Returns ``None`` for calls the dataclass ``__init__`` would reject;
    the caller then runs that initializer, which raises its own error.
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


def _publish(table: dict, key: tuple, inst: Any) -> Any:
    """Make ``inst`` the canonical node for ``key`` unless a racing
    constructor got there first; returns the table's winner.

    The marker is set before the node becomes visible in the table, and
    only on the winner.
    """
    global _INTERN_HITS, _INTERN_MISSES
    with _LOCK:
        winner = table.get(key)
        if winner is None:
            object.__setattr__(inst, _READY, True)
            table[key] = inst
            _INTERN_MISSES += 1
            return inst
        _INTERN_HITS += 1
        return winner


def _slow_new(info: _ClassInfo, kls: type, args: tuple,
              kwargs: dict) -> Any:
    """The constructor's general path: keyword arguments, wrong arity,
    un-canonical children, unhashable payloads, subclasses, and every
    class with a ``canonize``.

    A call that cannot be interned builds a plain instance through the
    dataclass initializer, so a bad call raises that initializer's
    ``TypeError`` and an unhashable payload keeps its arguments as given.
    """
    global _INTERN_HITS
    vals = _bind(info.field_names, args, kwargs) \
        if kls is info.cls else None
    if vals is not None:
        if info.canonize is not None:
            vals = info.canonize(vals)
        if not _is_canonical(vals):
            vals = _canon(vals)
    if vals is not None and vals is not _STUCK:
        try:
            inst = info.table.get(vals)
        except TypeError:
            pass  # unhashable payload (exotic constant): stay un-interned
        else:
            if inst is not None:
                _INTERN_HITS += 1
                return inst
            inst = object.__new__(kls)
            for name, value in zip(info.field_names, vals):
                object.__setattr__(inst, name, value)
            return _publish(info.table, vals, inst)
    inst = object.__new__(kls)
    info.orig_init(inst, *args, **kwargs)
    return inst


# One source template per field count, compiled once and shared by every
# interned class of that arity; each class's ``__new__``/``__repr__`` are
# closures over its own table, field names and repr format.  The table
# key is the argument tuple itself: a canonical child hashes and compares
# by identity, so tuple equality on canonical arguments is exactly the
# dataclass's structural equality.
_TEMPLATE = '''\
def make(cls, info, fmt):
    table = info.table
    get = table.get
    new = object.__new__
    setattr = object.__setattr__
{unpack_names}
    def __new__(kls, *args, **kwargs):
        global _INTERN_HITS, _INTERN_MISSES
        if kwargs or kls is not cls:
            return _slow_new(info, kls, args, kwargs)
        try:
            inst = get(args)
        except TypeError:
            return _slow_new(info, kls, args, kwargs)
        if inst is not None:
            _INTERN_HITS += 1
            return inst
        if len(args) != {n}:
            return _slow_new(info, kls, args, kwargs)
{unpack_args}{checks}
        inst = new(kls)
{sets}        with _LOCK:  # as in _publish, inlined
            winner = get(args)
            if winner is None:
                setattr(inst, _READY, True)
                table[args] = inst
                _INTERN_MISSES += 1
                return inst
            _INTERN_HITS += 1
            return winner

    def __repr__(self):
        d = self.__dict__
        return fmt % (self.__class__.__qualname__, {reprs})

    return __new__, __repr__
'''

_CHECK = '''\
        t = a{i}.__class__
        if t in _CLASSES:
            if _READY not in a{i}.__dict__:
                return _slow_new(info, kls, args, kwargs)
        elif t is tuple and not _is_canonical(a{i}):
            return _slow_new(info, kls, args, kwargs)
'''

_MAKERS: Dict[int, Callable] = {}


def _maker(n: int) -> Callable:
    """The compiled constructor/repr template for ``n``-field classes."""
    make = _MAKERS.get(n)
    if make is None:
        names = "".join(f"n{i}, " for i in range(n))
        values = "".join(f"a{i}, " for i in range(n))
        source = _TEMPLATE.format(
            n=n,
            unpack_names=f"    {names}= info.field_names\n" if n else "",
            unpack_args=f"        {values}= args\n" if n else "",
            checks="".join(_CHECK.format(i=i) for i in range(n)),
            sets="".join(f"        setattr(inst, n{i}, a{i})\n"
                         for i in range(n)),
            reprs="".join(f"d[n{i}], " for i in range(n)))
        scope: Dict[str, Any] = {}
        # Module globals, so ``global _INTERN_HITS`` counts here.
        exec(compile(source, f"<interned constructor, {n} fields>", "exec"),
             globals(), scope)
        make = _MAKERS[n] = scope["make"]
    return make


def _check_constructible(cls: type, fields: tuple) -> None:
    """Refuse, at decoration time, what the generated constructor would
    silently skip: it sets every field straight from its positional
    argument and never runs the dataclass ``__init__`` on a canonical
    node."""
    name = cls.__qualname__
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"@interned class {name} must not define "
                        f"__post_init__")
    for f in fields:
        if f.default is not MISSING or f.default_factory is not MISSING:
            raise TypeError(f"@interned class {name}: field {f.name!r} "
                            f"must not have a default")
        if not f.init or getattr(f, "kw_only", False) is True:
            raise TypeError(f"@interned class {name}: field {f.name!r} "
                            f"must be a positional __init__ parameter")


def interned(cls=None, *, canonize: Optional[Callable] = None):
    """Class decorator hash-consing a frozen dataclass.

    Apply *above* ``@dataclass(frozen=True)``.  Every field must be a
    plain positional ``__init__`` parameter without a default, and the
    class must not define ``__post_init__`` (a ``TypeError`` otherwise).
    ``canonize``, when given, maps the bound field-value tuple to its
    canonical form before interning (e.g. sorting an AC operator's
    operand tuple), so the canonical order is established once at
    construction.
    """
    if cls is None:
        return lambda c: interned(c, canonize=canonize)

    fields = _dataclass_fields(cls)
    _check_constructible(cls, fields)
    field_names = tuple(f.name for f in fields)
    info = _ClassInfo(cls, field_names, canonize)
    orig_eq = cls.__eq__
    # Wrap any non-default __str__ (own or inherited, e.g. the shared
    # Schema.__str__) with a per-node cache.
    orig_str = cls.__str__ if cls.__str__ is not object.__str__ else None
    fmt = "%s(" + ", ".join(f"{n}=%r" for n in field_names) + ")"
    new, fast_repr = _maker(len(field_names))(cls, info, fmt)
    if canonize is not None:
        def new(kls, *args, **kwargs):
            return _slow_new(info, kls, args, kwargs)

    def __eq__(self, other):
        if self is other:
            return True
        if self.__class__ is not other.__class__:
            return NotImplemented
        if self.__dict__.get(_READY) and other.__dict__.get(_READY):
            return False  # two distinct canonical nodes differ structurally
        return orig_eq(self, other)

    def __reduce__(self):
        return (self.__class__,
                tuple(getattr(self, n) for n in field_names))

    cls.__new__ = new
    # Every path through __new__ returns a fully initialized instance.
    cls.__init__ = object.__init__
    cls.__eq__ = __eq__
    # Canonical nodes are unique per structure, so identity is a sound
    # hash for them (an un-canonical node hashes by identity too).
    cls.__hash__ = object.__hash__
    cls.__reduce__ = __reduce__
    # Replace the dataclass __repr__ (recognized by its recursion-guard
    # wrapper) with the same text minus the guard: interned nodes are
    # immutable DAGs, so a repr cannot recurse into itself.
    if hasattr(cls.__dict__.get("__repr__"), "__wrapped__") \
            and all(f.repr for f in fields):
        cls.__repr__ = fast_repr
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
