"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` replaces module attributes of ``nccumulants`` with
wrappers at run time; ``uninstall`` puts the originals back, and a later
``install`` wraps them again.  A span records its layer name, start and end
in nanoseconds, the index of the span that was open when it started (its
parent, -1 for none) and one measured value (partitions returned, words
produced or table terms built).  Spans stay in
memory until the caller writes them out.  A target that the program no
longer has is skipped, and the metrics derived only from it are reported
as absent, not as zero.
"""

import time
from collections import Counter

from nccumulants import cli, cumulants, oracle, partitions, prelie, trees

SUITES = ("tables", "kreimer", "prelie", "magnus-closed", "roundtrips", "counts")

_CONVERSIONS = (
    "convert",
    "moments_from",
    "cumulants_from_moments",
    "boolean_from_free",
    "free_from_boolean",
    "free_from_monotone",
    "boolean_from_monotone",
    "monotone_from_free",
    "monotone_from_boolean",
)


def _length(args, result):
    return len(result)


def _words(args, result):
    f = getattr(result, "data", result)
    return sum(len(f.alphabet) ** m for m in range(1, f.max_order + 1))


def _new_table_terms():
    # the term tables are unbounded caches, so a table is built exactly on
    # the first call with its argument
    seen = set()

    def measure(args, result):
        if args in seen:
            return 0
        seen.add(args)
        return len(result)

    return measure


def span_targets():
    """(layer, owner, attribute, measure) for every span wrapper."""
    targets = [
        ("partitions.enumerate", partitions, "enumerate_nc", _length),
        ("partitions.enumerate", partitions, "enumerate_nc_irr", _length),
        ("partitions.nesting", partitions, "nesting_forest", None),
        ("trees.omega", trees, "omega", None),
        ("trees.factorial", trees, "tree_factorial", None),
    ]
    targets += [("cumulants.convert", cumulants, name, _words) for name in _CONVERSIONS]
    targets += [
        ("cumulants.tables", cumulants, "_irr_terms", _new_table_terms()),
        ("cumulants.tables", cumulants, "_nc_terms", _new_table_terms()),
        ("prelie.magnus", prelie, "magnus", None),
        ("prelie.magnus_inverse", prelie, "magnus_inverse", None),
        ("prelie.exp_left", prelie, "exp_left", None),
        ("prelie.product", prelie, "prelie_product", None),
        ("prelie.json", prelie.Functional, "to_json", None),
        ("prelie.json", prelie.Functional, "from_json", None),
        ("cli.main", cli, "main", None),
    ]
    suites = getattr(oracle, "SUITES", {})
    targets += [(f"oracle.suite.{name}", suites, name, None) for name in SUITES]
    return targets


# (counter, owner, attribute, counter of non-None results or None)
COUNT_TARGETS = (
    ("cumulants.block_products", cumulants, "_block_product", "cumulants.block_products_nonzero"),
    ("prelie.product_at_calls", prelie, "_product_at", None),
)

# (name, owner, attribute) of the memo caches whose cache_info() is read
CACHES = (
    ("nc_blocks", partitions, "_nc_blocks"),
    ("omega", trees, "omega"),
)


def _get(owner, name):
    if isinstance(owner, dict):
        return owner.get(name)
    if isinstance(owner, type):
        return owner.__dict__.get(name)
    return getattr(owner, name, None)


def _set(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start_ns, end_ns, parent, value]
        self.counts = Counter()
        self.active = False
        self.installed = set()  # layers and counters with a live target
        self._stack = []
        self._undo = []
        self._caches = {}

    def install(self):
        if self._undo:
            return
        for name, owner, attr in CACHES:
            fn = _get(owner, attr)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[name] = fn
        for layer, owner, attr, measure in span_targets():
            self._wrap(owner, attr, layer, lambda fn: self._span(layer, fn, measure))
        for counter, owner, attr, nonzero in COUNT_TARGETS:
            self._wrap(owner, attr, counter, lambda fn: self._count(counter, nonzero, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            _set(owner, attr, original)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def cache_stats(self):
        return {
            name: {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
            for name, info in ((n, fn.cache_info()) for n, fn in self._caches.items())
        }

    def _wrap(self, owner, attr, layer, make):
        original = _get(owner, attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        _set(owner, attr, wrapped)
        self._undo.append((owner, attr, original))
        self.installed.add(layer)

    def _span(self, layer, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [layer, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if measure is not None:
                record[4] = measure(args, result)
            return result

        return wrapper

    def _count(self, counter, nonzero, fn):
        counts = self.counts

        def wrapper(*args):
            result = fn(*args)
            if self.active:
                counts[counter] += 1
                if nonzero is not None and result is not None:
                    counts[nonzero] += 1
            return result

        return wrapper

    def record(self):
        """The raw trace: spans, counters, cache statistics and live targets."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "caches": self.cache_stats(),
            "installed": sorted(self.installed),
        }


def merge_records(records):
    """One raw trace from several processes' traces: spans are concatenated
    with their parents re-indexed, counters and cache hits summed, and cache
    entries taken at their largest."""
    spans, counts, caches, installed = [], Counter(), {}, set()
    for rec in records:
        offset = len(spans)
        for layer, start, end, parent, value in rec["spans"]:
            spans.append([layer, start, end, parent + offset if parent >= 0 else -1, value])
        counts.update(rec["counts"])
        for name, info in rec["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0, "entries": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["entries"] = max(acc["entries"], info["entries"])
        installed.update(rec["installed"])
    return {"spans": spans, "counts": dict(counts), "caches": caches, "installed": sorted(installed)}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(rec):
    """Per-layer metrics of a raw trace.  Times are self times in seconds,
    except ``oracle.suite_s.*`` and ``cli.main_s``, which include their
    children; calls and values count only spans not nested in a span of the
    same layer."""
    spans = rec["spans"]
    self_ns = [end - start for _, start, end, _, _ in spans]
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    self_s, total_s, calls, all_calls, values = Counter(), Counter(), Counter(), Counter(), Counter()
    for i, (layer, start, end, parent, value) in enumerate(spans):
        self_s[layer] += self_ns[i] / 1e9
        all_calls[layer] += 1
        if parent < 0 or spans[parent][0] != layer:
            total_s[layer] += (end - start) / 1e9
            calls[layer] += 1
            values[layer] += value
    counts, caches, live = rec["counts"], rec["caches"], set(rec["installed"])

    def cache(name):
        info = caches.get(name)
        if info is None:
            return {}
        return {
            "hit_ratio": _ratio(info["hits"], info["hits"] + info["misses"]),
            "entries": info["entries"],
        }

    nc, om = cache("nc_blocks"), cache("omega")
    candidates = {
        "partitions.enumerate_s": ("partitions.enumerate", self_s["partitions.enumerate"]),
        "partitions.enumerate_calls": ("partitions.enumerate", calls["partitions.enumerate"]),
        "partitions.partitions_out": ("partitions.enumerate", values["partitions.enumerate"]),
        "partitions.nesting_s": ("partitions.nesting", self_s["partitions.nesting"]),
        "partitions.nesting_calls": ("partitions.nesting", all_calls["partitions.nesting"]),
        "partitions.nc_blocks_hit_ratio": ("nc_blocks", nc.get("hit_ratio")),
        "partitions.nc_blocks_entries": ("nc_blocks", nc.get("entries")),
        "trees.omega_s": ("trees.omega", self_s["trees.omega"]),
        "trees.omega_calls": ("trees.omega", all_calls["trees.omega"]),
        "trees.omega_hit_ratio": ("omega", om.get("hit_ratio")),
        "trees.factorial_s": ("trees.factorial", self_s["trees.factorial"]),
        "cumulants.convert_s": ("cumulants.convert", self_s["cumulants.convert"]),
        "cumulants.words_out": ("cumulants.convert", values["cumulants.convert"]),
        "cumulants.tables_s": ("cumulants.tables", self_s["cumulants.tables"]),
        "cumulants.table_terms": ("cumulants.tables", values["cumulants.tables"]),
        "cumulants.block_products": (
            "cumulants.block_products", counts.get("cumulants.block_products", 0)),
        "cumulants.block_product_yield": (
            "cumulants.block_products",
            _ratio(counts.get("cumulants.block_products_nonzero", 0),
                   counts.get("cumulants.block_products", 0)),
        ),
        "prelie.magnus_s": ("prelie.magnus", self_s["prelie.magnus"]),
        "prelie.magnus_inverse_s": ("prelie.magnus_inverse", self_s["prelie.magnus_inverse"]),
        "prelie.exp_left_s": ("prelie.exp_left", self_s["prelie.exp_left"]),
        "prelie.product_s": ("prelie.product", self_s["prelie.product"]),
        "prelie.product_at_calls": (
            "prelie.product_at_calls", counts.get("prelie.product_at_calls", 0)),
        "prelie.json_s": ("prelie.json", self_s["prelie.json"]),
        "cli.main_s": ("cli.main", total_s["cli.main"]),
    }
    for name in SUITES:
        layer = f"oracle.suite.{name}"
        candidates[f"oracle.suite_s.{name}"] = (layer, total_s[layer])
    live |= set(caches)
    return {name: value for name, (source, value) in candidates.items() if source in live}


def fractions_share(stats):
    """Share of profiled self time spent in the standard library's
    fractions.py, from a ``pstats.Stats``."""
    total = in_fractions = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        total += tottime
        if filename.endswith("fractions.py"):
            in_fractions += tottime
    return _ratio(in_fractions, total)
