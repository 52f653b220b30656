"""Outside-in layer trace: wraps the package's public functions at run time.

Every public function and method defined in a ``stexo`` module is replaced,
in each module namespace that holds it and on its class, by a wrapper that
records a span (name, start, end, parent) in memory.  A few hot scalar
methods are counted instead of spanned, and two word helpers that run
inside ``face`` more than once per call are left alone, so that the trace
stays cheap enough to run on a whole pass.  Nothing in the package source
changes; the wrappers only exist in the traced process.

Self time of a span is its duration minus the time its child spans cover.
The benchmark opens one root span per stage (``bench.<stage>``), so the
self times of all spans in a pass sum to the traced pass time.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

# hot scalar methods: counted, not spanned (calls per catalog-roundtrip pass)
COUNTED = {
    "simplicial.SimplicialModel.face",  # ~7M
    "simplicial.SimplicialModel.subface",  # ~80k
    "simplicial.SimplicialModel.n_cells",
    "simplicial.SimplicialMap.apply",  # ~1.7M
    "simplicial.Cochain.eval_target",  # ~20k
    "gf2.F2Matrix.get",  # ~400k
    "gf2.F2Matrix.set",  # ~400k
}
# word arithmetic called from inside face (~9M calls per catalog pass);
# wrapping them would multiply the trace cost, their time stays with the caller
UNWRAPPED = {"simplicial.compose_words", "simplicial.insert_degeneracy"}


class Tracer:
    """In-memory span recorder with a pause switch for the benchmark's checks."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # counted calls and observed sizes
        self.paused = True
        self._ids: dict[str, int] = {}
        self._bases: dict[int, weakref.ref] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> list:
        rec = [nid, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------

    def spanned(self, fn, name: str):
        nid = self.name_id(name)
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if observe is not None:
                observe(self, args, out)
            return out

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap every public stexo function and method; returns the count."""
        mods = {
            n: m
            for n, m in sys.modules.items()
            if n.startswith("stexo.") and m is not None
        }
        replaced = {}
        methods = 0
        for mname, mod in mods.items():
            short = mname[len("stexo.") :]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mname:
                    methods += self._wrap_class(obj, f"{short}.{attr}")
                elif isinstance(obj, FunctionType) and obj.__module__ == mname:
                    # lru_cache objects (the catalog builders) are not functions;
                    # the benchmark spans those calls itself
                    name = f"{short}.{attr}"
                    if name not in UNWRAPPED:
                        replaced[obj] = self._wrap(obj, name)
        # rebind every module-level alias, including names imported elsewhere
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                try:
                    new = replaced.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None:
                    setattr(mod, attr, new)
        return len(replaced) + methods

    def _wrap(self, fn, name: str):
        return self.counted(fn, name) if name in COUNTED else self.spanned(fn, name)

    def _wrap_class(self, cls, name: str) -> int:
        wrapped = 0
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            full = f"{name}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(raw.__func__, full)))
            elif isinstance(raw, FunctionType):
                setattr(cls, attr, self._wrap(raw, full))
            else:
                continue
            wrapped += 1
        return wrapped

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self seconds and number of spans."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for k, (nid, start, end, _) in enumerate(self.spans):
            name = self.names[nid]
            self_s[name] += (end - start) - child[k]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


# -- observers: counts taken at the call boundary ---------------------------


def _basis_seen(tr: Tracer, args, out) -> None:
    # a cache hit hands back an object an earlier call already returned
    ref = tr._bases.get(id(out))
    if ref is not None and ref() is out:
        tr.counts["cohomology.cohomology_basis.hits"] += 1
    else:
        tr._bases[id(out)] = weakref.ref(out)
        tr.counts["cohomology.cohomology_basis.misses"] += 1


def _snf_entries(tr: Tracer, args, out) -> None:
    a = args[0]
    tr.counts["snf.smith_normal_form.entries"] += len(a) * (len(a[0]) if a else 0)


def _lift_data(tr: Tracer, args, out) -> None:
    tr.counts["obstruction.lift_data.built"] += len(out[0])


def _bytes_out(tr: Tracer, args, out) -> None:
    tr.counts["modelfile.bytes"] += len(out)


def _bytes_in(tr: Tracer, args, out) -> None:
    tr.counts["modelfile.bytes"] += len(args[0])


_OBSERVERS = {
    "cohomology.cohomology_basis": _basis_seen,
    "snf.smith_normal_form": _snf_entries,
    "obstruction.LiftSolutions.enumerate_data": _lift_data,
    "modelfile.canonical_bytes": _bytes_out,
    "modelfile.parse_bytes": _bytes_in,
}
