"""In-memory span tracing of the towercodes layers, installed from outside.

The package is not edited: `Tracer.install` replaces the public entry points
of `field`, `codes`, `cyclotomic`, `theory` and `cli` with thin wrappers that
record one span per call (name, start, end, parent span, request id) and a
few exact work counts, and `Tracer.restore` puts every original back.

A span's self time is its duration minus the part of its interval that its
direct children cover.  Calls run on one thread, so children nest inside
their parent and the self times of one request add up to the duration of
its root span.
"""

import sys
import time
from collections import Counter, defaultdict

# Span names group into layers by the text before the first dot.
LAYERS = ("field", "codes", "cyclotomic", "theory", "cli")
ROOT = "request"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, request id]
        self.spans = []
        self.counts = Counter()
        self.request_id = -1
        self._stack = []
        self._patched = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def request(self, rid, fn):
        """Run fn() as the root span of request `rid`."""
        self.request_id = rid
        try:
            return self.call(ROOT, fn, (), {})
        finally:
            self.request_id = -1

    def _wrapper(self, name, fn, count=None, plain=None):
        """Span and count calls made inside a request; calls outside any
        request (the benchmark's own output checks) go to `plain`, the
        original, untouched."""
        plain = plain or fn

        def traced(*args, **kwargs):
            if self.request_id < 0:
                return plain(*args, **kwargs)
            out = self.call(name, fn, args, kwargs)
            if count is not None:
                count(args, out)
            return out
        traced.__wrapped__ = plain
        return traced

    # -- installing and restoring wrappers --------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, name, count=None, inner=None):
        """Wrap a module-level function everywhere the package bound it,
        including `from .x import f` copies in sibling modules.  `inner`,
        if given, is what the span times in place of the original."""
        orig = getattr(module, attr)
        new = self._wrapper(name, inner or orig, count, orig)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "towercodes" or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, key, new)

    def _patch_method(self, cls, attr, name, count=None, inner=None):
        orig = cls.__dict__[attr]
        self._patch(cls, attr, self._wrapper(name, inner or orig, count, orig))

    def install(self):
        from towercodes import cli, codes, cyclotomic, field, theory

        counts = self.counts
        Field, CycloInt = field.Field, cyclotomic.CycloInt

        def bump(key):
            def count(args, out):
                counts[key] += 1
            return count

        def cells(args, out):
            tower = args[0].tower
            counts["codes.cells"] += (tower.q ** tower.k - 1) * len(args[0])

        def mul(args, out):
            if isinstance(out, CycloInt):
                counts["cyclotomic.muls"] += 1
                counts["cyclotomic.mul_coeffs"] += out.n

        canonical = CycloInt.__dict__["canonical"]

        def reducing_canonical(obj):
            # a reduction is a canonical() call that finds no cached form
            if getattr(obj, "_canon", None) is None:
                counts["cyclotomic.reductions"] += 1
            return canonical(obj)

        coset_sums = theory.coset_sums
        cache_info = getattr(coset_sums, "cache_info", None)

        def counted_coset_sums(tower):
            hits = cache_info().hits if cache_info else 0
            out = coset_sums(tower)
            counts["theory.coset_calls"] += 1
            if cache_info and cache_info().hits > hits:
                counts["theory.coset_hits"] += 1
            return out

        self._patch_function(field, "get_field", "field.get",
                             bump("field.gets"))
        self._patch_method(Field, "__init__", "field.build",
                           bump("field.builds"))
        self._patch_method(Field, "trace_exp_subtable", "field.subtable",
                           bump("field.subtable_calls"))
        self._patch_method(Field, "trace_zero_indicator",
                           "field.zero_indicator")
        self._patch_method(Field, "abs_trace_residues", "field.abs_trace")

        self._patch_function(codes, "build_defining_set",
                             "codes.defining_set")
        self._patch_function(codes, "puncture", "codes.puncture")
        self._patch_function(codes, "codeword", "codes.codeword")
        self._patch_function(codes, "zero_trace_counts", "codes.zero_counts",
                             cells)
        self._patch_function(codes, "brute_weight_distribution",
                             "codes.distribution")

        self._patch_function(cyclotomic, "gauss_sum", "cyclotomic.gauss_sum",
                             bump("cyclotomic.gauss_sums"))
        for attr in ("__mul__", "__rmul__"):
            self._patch_method(CycloInt, attr, "cyclotomic.mul", mul)
        self._patch_method(CycloInt, "canonical", "cyclotomic.canonical",
                           inner=reducing_canonical)
        self._patch_method(CycloInt, "__init__", "cyclotomic.arith",
                           bump("cyclotomic.objects"))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__pow__", "__eq__", "lift", "conj"):
            self._patch_method(CycloInt, attr, "cyclotomic.arith")

        self._patch_function(theory, "coset_sums", "theory.coset_sums",
                             inner=counted_coset_sums)
        self._patch_function(theory, "predicted_distribution",
                             "theory.predicted")
        for attr in ("__init__", "verdicts", "matches"):
            self._patch_method(theory.TheoryReport, attr, "theory.report")

        self._patch_function(cli, "main", "cli.main")

    def restore(self):
        """Put every original back, newest patch first, and check it."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
            current = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            if current is not orig:
                raise RuntimeError(f"could not restore {owner}.{attr}")

    # -- derived figures --------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        spans = self.spans
        children = defaultdict(list)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (_, start, end, _, _) in enumerate(spans):
            covered = 0.0
            lo = start
            for c in children.get(i, ()):  # children start in time order
                cs, ce = max(spans[c][1], lo), min(spans[c][2], end)
                if ce > cs:
                    covered += ce - cs
                    lo = ce
            out.append(end - start - covered)
        return out

    def summary(self):
        """Self time by span name, the work counts, and per request the
        triple (root duration, self time of the layer spans under it, the
        root's own self time).

        The root's own time is the benchmark code around the call into the
        package.  Self times of properly nested spans partition the root's
        interval, so the last two figures add up to the first.
        """
        by_name = Counter()
        layered = defaultdict(float)
        roots = {}
        for (name, start, end, parent, rid), own in zip(self.spans,
                                                        self.self_times()):
            by_name[name] += own
            if parent < 0:
                roots[rid] = (end - start, own)
            elif name.split(".")[0] in LAYERS:
                layered[rid] += own
        requests = {rid: (dur, layered[rid], own)
                    for rid, (dur, own) in roots.items()}
        return dict(by_name), dict(self.counts), requests
