"""Spans for the traced run, recorded from outside the program.

`install` replaces the traced public functions of ``idrd`` in every module
namespace that references them, so internal callers are caught too (for
example ``_gamma_dr_with_witness`` calling ``idrdn``).  ``Graph.__init__``
is wrapped on the class, which covers Graph construction from every caller.
A span is ``[parent, request, name, start, end, busy]``: ``busy`` is
``end - start`` for calls and the time spent inside ``next()`` for the
maximal-independent-set generator, whose body interleaves with its
consumer.  A span's self time is its busy time minus the busy time of its
children; the spans of one request therefore have self times summing to the
request's duration.
"""

import functools
from collections import Counter
from time import perf_counter

# (module, function) pairs wrapped in the traced run; the span is named
# "<module>.<function>".
TRACED = (
    ("graph", "parse_edge_list"),
    ("graph", "serialize_edge_list"),
    ("graph", "random_graph"),
    ("graph", "random_tree"),
    ("solvers", "idrdn"),
    ("solvers", "ir2dn"),
    ("solvers", "idn"),
    ("solvers", "i2rdn"),
    ("solvers", "packing_number"),
    ("solvers", "max_matching"),
    ("solvers", "min_edge_cover"),
    ("solvers", "tree_idrdn"),
    ("solvers", "tree_idn"),
    ("bounds", "check_bounds"),
    ("bounds", "fuzz"),
    ("families", "classify_tree"),
    ("families", "realize"),
    ("cli", "main"),
)
MIS = "solvers.maximal_independent_sets"
INVARIANTS = "solvers.compute_invariants"
BRANCH_AND_BOUND = ("gamma", "gamma_r2", "gamma_dr")


class Tracer:
    """In-memory span recorder for one pass over the requests."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.active = False
        self.counts = Counter()

    def _open(self, name):
        span = [self.stack[-1] if self.stack else -1, self.request, name, perf_counter(), 0.0, 0.0]
        self.spans.append(span)
        return span

    def call(self, name, fn, /, *args, **kwargs):
        """Run fn under a span named `name` when tracing is active."""
        if not self.active:
            return fn(*args, **kwargs)
        span = self._open(name)
        self.stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span[4] = perf_counter()
            span[5] = span[4] - span[3]

    def timed(self, name, fn, /, *args):
        """A span for the benchmark's own checker calls, recorded with
        tracing of the program switched off."""
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            span[4] = perf_counter()
            span[5] = span[4] - span[3]

    def iterate(self, name, gen):
        """Yield from gen under a span whose busy time is the time spent inside it."""
        span = self._open(name)
        busy, items = 0.0, 0
        try:
            while True:
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter() - start
                items += 1
                yield item
        finally:
            span[4] = perf_counter()
            span[5] = busy
            self.counts[name + ".items"] += items


def install(tracer, mods):
    """Wrap the traced functions in all idrd modules; return the undo callable."""
    modules = list(vars(mods).values())
    replaced = []

    def replace(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, attr, value))
                    setattr(module, attr, wrapper)

    for module, attr in TRACED:
        fn = getattr(getattr(mods, module), attr)
        replace(fn, functools.partial(tracer.call, f"{module}.{attr}", fn))

    mis = mods.solvers.maximal_independent_sets

    def traced_mis(*args, **kwargs):
        gen = mis(*args, **kwargs)
        return tracer.iterate(MIS, gen) if tracer.active else gen

    replace(mis, traced_mis)

    invariants = mods.solvers.compute_invariants

    def per_invariant(g, which=None, **kwargs):
        # One call per name, so each invariant gets a span of its own.
        if which is not None or not tracer.active:
            return invariants(g, which, **kwargs)
        table = None
        for name in mods.solvers.INVARIANT_NAMES:
            part = tracer.call(f"{INVARIANTS}[{name}]", invariants, g, [name], **kwargs)
            if table is None:
                table = part
            else:
                table.entries.update(part.entries)
                table.witnesses.update(part.witnesses)
                table.not_applicable.update(part.not_applicable)
        return table

    replace(invariants, functools.partial(tracer.call, INVARIANTS, per_invariant))

    graph_class = mods.graph.Graph
    init = graph_class.__init__

    def traced_init(self, *args, **kwargs):
        tracer.call("graph.build", init, self, *args, **kwargs)
        if tracer.active:
            tracer.counts["graph.vertices_built"] += self.n
            tracer.counts["graph.edges_built"] += len(self.edges)

    graph_class.__init__ = traced_init

    def undo():
        graph_class.__init__ = init
        for module, attr, value in reversed(replaced):
            setattr(module, attr, value)

    return undo


def self_times(spans):
    """Self time of every span: its busy time minus its children's."""
    own = [span[5] for span in spans]
    for span in spans:
        if span[0] >= 0:
            own[span[0]] -= span[5]
    return own


def work_counts(tracer):
    """Calls per span name plus the counters; repeats exactly for fixed inputs."""
    calls = Counter(span[2] for span in tracer.spans)
    return dict(sorted((calls + tracer.counts).items()))


def layer_metrics(tracer, graphs):
    """Per-layer metrics of one traced pass that processed `graphs` graphs."""
    busy, own, calls = Counter(), Counter(), Counter()
    for span, self_time in zip(tracer.spans, self_times(tracer.spans)):
        busy[span[2]] += span[5]
        own[span[2]] += self_time
        calls[span[2]] += 1
    generated = calls["graph.random_graph"] + calls["graph.random_tree"]
    m = {
        "solvers.maximal_independent_sets.s": busy[MIS],
        "solvers.mis.calls_per_graph": calls[MIS] / graphs,
        "solvers.mis.sets": tracer.counts[MIS + ".items"],
        "solvers.max_matching.s": busy["solvers.max_matching"],
        "solvers.max_matching.calls_per_graph": calls["solvers.max_matching"] / graphs,
        "solvers.tree_idrdn.s": busy["solvers.tree_idrdn"],
        "solvers.tree_idn.s": busy["solvers.tree_idn"],
        "solvers.compute_invariants.self_s": own[INVARIANTS] + sum(
            t for name, t in own.items()
            if name.startswith(INVARIANTS + "[") and name[len(INVARIANTS) + 1:-1] not in BRANCH_AND_BOUND
        ),
        "families.classify_tree.s": busy["families.classify_tree"],
        "families.realize.s": busy["families.realize"],
        "graph.build.s": busy["graph.build"],
        "graph.serialize_edge_list.s": busy["graph.serialize_edge_list"],
        "graph.vertices_built": tracer.counts["graph.vertices_built"],
        "graph.edges_built": tracer.counts["graph.edges_built"],
        "bounds.fuzz.accept_ratio": calls["bounds.check_bounds"] / generated if generated else 0.0,
        "labelings.validate.s": busy["labelings.validate"],
    }
    for name in BRANCH_AND_BOUND:
        m[f"solvers.{name}.self_s"] = own[f"{INVARIANTS}[{name}]"]
    for name in (
        "solvers.idrdn", "solvers.ir2dn", "solvers.idn", "solvers.i2rdn",
        "solvers.packing_number", "solvers.min_edge_cover", "graph.parse_edge_list",
        "graph.random_graph", "graph.random_tree", "bounds.check_bounds", "bounds.fuzz",
        "cli.main",
    ):
        m[name + ".self_s"] = own[name]
    return m


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\tparent\trequest\tname\tstart\tend\tbusy\n")
        for i, (parent, request, name, start, end, busy) in enumerate(spans):
            handle.write(f"{i}\t{parent}\t{request}\t{name}\t{start:.9f}\t{end:.9f}\t{busy:.9f}\n")
