"""Spans and counters around petrie's public functions, for one op process.

``Tracer.install`` replaces each target function with a recording wrapper in
every loaded petrie module that holds it, so calls through an importing
module's namespace (``schur_ring.pet_grinberg``,
``modular_schur.poly_multiply_extract``) are caught as well.  Nothing outside
the op process is touched.  Forked pool workers switch recording off, so a
``sweep --jobs 2`` op records only the outer ``sweep_smf`` span and the CPU
its workers used.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import resource
import sys
import time
from collections import Counter

from combinat import orbit_size
from stats import self_times

# (module, attribute) of every traced function.  A dotted attribute names a
# method; its span is named after the class.
TARGETS = (
    ("partitions", "partitions_of"),
    ("partitions", "add_rim_hooks"),
    ("abacus", "profile"),
    ("abacus", "k_core"),
    ("petrie_numbers", "pet_grinberg"),
    ("petrie_numbers", "pet_det"),
    ("schur_ring", "petrie_schur_expansion"),
    ("schur_ring", "multiply_power_sum"),
    ("schur_ring", "SchurExpansion.__init__"),
    ("schur_ring", "witness_non_smf"),
    ("schur_ring", "sweep_smf"),
    ("oracle", "poly_multiply_extract"),
    ("oracle", "monomial_to_schur"),
    ("oracle", "schur_monomial_vector"),
    ("modular_schur", "transition_matrix"),
    ("cli", "main"),
)

HOOKS_ADDED = "partitions.add_rim_hooks.yielded"


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _orbit_terms(vector, nvars: int) -> int:
    """Monomials of a monomial-basis vector written out in ``nvars`` variables."""
    return sum(orbit_size(lam, nvars) for lam, _ in vector.items())


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list = []
        self.counters: Counter = Counter()
        self.distinct_km: set = set()
        self.present: list[str] = []
        self._stack: list[int] = []
        self._originals: dict = {}

    def _arguments(self, name: str, args, kwargs) -> dict:
        """The arguments of a call to the traced function ``name`` by parameter name."""
        call = inspect.signature(self._originals[name]).bind(*args, **kwargs)
        call.apply_defaults()
        return call.arguments

    def _wrap(self, name: str, fn, after=None):
        """One span per call; ``after(args, kwargs, result)`` updates counters
        once the span has ended."""
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[sid] = (sid, parent, name, start, end)
            tracer.counters[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self) -> dict:
        """Counter updates per span name, run after the span ends."""
        c = self.counters

        def yielded(name):
            def after(args, kwargs, result):
                c[name + ".yielded"] += len(result)
            return after

        def nonzero(args, kwargs, result):
            c["petrie_numbers.pet_grinberg.nonzero"] += bool(result)

        def distinct(args, kwargs, result):
            call = self._arguments("schur_ring.petrie_schur_expansion", args, kwargs)
            self.distinct_km.add((call["k"], call["m"]))

        def oracle_product(args, kwargs, result):
            call = self._arguments("oracle.poly_multiply_extract", args, kwargs)
            f, g = call["f"], call["g"]
            nvars = f.degree + g.degree
            c["oracle.poly_multiply_extract.out_terms"] += len(result)
            c["oracle.poly_multiply_extract.pairs_computed"] += (
                _orbit_terms(f, nvars) * _orbit_terms(g, nvars)
            )

        return {
            "partitions.partitions_of": yielded("partitions.partitions_of"),
            "partitions.add_rim_hooks": yielded("partitions.add_rim_hooks"),
            "petrie_numbers.pet_grinberg": nonzero,
            "schur_ring.petrie_schur_expansion": distinct,
            "oracle.poly_multiply_extract": oracle_product,
        }

    def _wrap_product(self, name: str, fn):
        """multiply_power_sum also counts its output terms and the rim hooks
        its add_rim_hooks calls yielded, for the combine ratio."""
        inner = self._wrap(name, fn)

        def traced(*args, **kwargs):
            before = self.counters[HOOKS_ADDED]
            result = inner(*args, **kwargs)
            if self.enabled:
                self.counters[name + ".out_terms"] += len(result)
                self.counters[name + ".hooks_added"] += self.counters[HOOKS_ADDED] - before
            return result

        return traced

    def _wrap_sweep(self, name: str, fn):
        """sweep_smf also records the triples it covers and its pool's CPU.

        Pool workers are reaped when the pool shuts down, so their CPU shows
        in this process's RUSAGE_CHILDREN once the call returns.
        """
        inner = self._wrap(name, fn)

        def traced(*args, **kwargs):
            cpu0, wall0 = _children_cpu(), time.perf_counter()
            result = inner(*args, **kwargs)
            if self.enabled:
                cpu, wall = _children_cpu() - cpu0, time.perf_counter() - wall0
                p = self._arguments(name, args, kwargs)
                self.counters[name + ".triples"] += p["k_max"] * (p["m_max"] + 1) * p["n_max"]
                self.counters[name + ".worker_cpu_s"] += cpu
                if p.get("jobs", 1) > 1:
                    self.counters[name + ".pool_idle_s"] += p["jobs"] * wall - cpu
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one stays absent."""
        import petrie.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [mod for key, mod in list(sys.modules.items()) if key.split(".")[0] == "petrie"]
        hooks = self._hooks()
        for module_name, attr in TARGETS:
            owner_name, _, method = attr.partition(".")
            owner = getattr(sys.modules.get(f"petrie.{module_name}"), owner_name, None)
            name = f"{module_name}.{owner_name}"
            if method:
                original = getattr(owner, "__dict__", {}).get(method)
                if original is not None:
                    setattr(owner, method, self._wrap(name, original))
                    self.present.append(name)
                continue
            if owner is None:
                continue
            self._originals[name] = owner
            if name == "schur_ring.multiply_power_sum":
                wrapper = self._wrap_product(name, owner)
            elif name == "schur_ring.sweep_smf":
                wrapper = self._wrap_sweep(name, owner)
            else:
                wrapper = self._wrap(name, owner, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        setattr(mod, key, wrapper)
            self.present.append(name)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def read_module_counters(self) -> None:
        """Counters kept in module globals; a source that is gone stays absent."""
        oracle = sys.modules.get("petrie.oracle")
        info = getattr(getattr(oracle, "kostka_number", None), "cache_info", None)
        if info is not None:
            stats = info()
            self.counters["oracle.kostka_number.hits"] += stats.hits
            self.counters["oracle.kostka_number.misses"] += stats.misses
            self.counters["oracle.kostka_number.currsize"] += stats.currsize
        cache = getattr(sys.modules.get("petrie.modular_schur"), "_PRODUCT_CACHE", None)
        if cache is not None:
            self.counters["modular_schur.product_cache.entries"] += len(cache)

    def summary(self) -> dict:
        """Self time per span name, the root spans' total, and every counter."""
        done = [span for span in self.spans if span is not None]
        own = self_times(done)
        self_s: Counter = Counter()
        for sid, _, name, _, _ in done:
            self_s[name] += own[sid] / 1e9
        return {
            "present": self.present,
            "self_s": dict(self_s),
            "root_s": sum(end - start for _, parent, _, start, end in done if parent is None) / 1e9,
            "counters": dict(self.counters),
            "distinct_km": sorted(self.distinct_km),
        }

    def write_spans(self, path: str) -> None:
        """Every finished span, one JSON array per line: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
