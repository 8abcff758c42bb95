"""Tracing from outside the program: spans around taksir's public functions.

Modules import names directly (``from .paradigm import inflect``), so a
function is wrapped everywhere it is looked up: every ``taksir`` module
attribute bound to it is replaced, and methods are replaced on their class.
Spans are aggregated in memory per call path (a tree whose nodes hold call
count, total time and the time covered by child spans), so self time is a
node's total minus its children's.  ``Tracer.tree()`` returns the tree for
writing out when the run ends.

Counters are taken at the same boundaries: forms generated by ``inflect``,
lookup hits, and per ``segment`` call the lookups made, the distinct noun
candidates looked up, the analyses returned and the readings kept.
"""

import importlib
import sys
from time import perf_counter


class Node:
    __slots__ = ("children", "calls", "total", "child_total")

    def __init__(self):
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.child_total = 0.0


class Tracer:
    def __init__(self):
        self.root = Node()
        self.node = self.root
        self.counters: dict[str, int] = {}
        self.segment_ctx = None     # [lookups, {noun candidates}, analyses]
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn):
        """``fn`` recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            parent = self.node
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node()
            self.node = node
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self.node = parent
                node.calls += 1
                node.total += elapsed
                parent.child_total += elapsed

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, replacement) -> None:
        """Rebind every taksir module attribute bound to module.attr."""
        original = getattr(importlib.import_module(module), attr)
        for name, mod in list(sys.modules.items()):
            if name == "taksir" or name.startswith("taksir."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, replacement)

    def patch_method(self, cls, attr: str, replacement) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(replacement)
        self._set(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layers(self) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds]."""
        out: dict[str, list] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            for name, child in node.children.items():
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += child.calls
                row[1] += child.total
                row[2] += child.total - child.child_total
                stack.append(child)
        return out

    def tree(self, node: Node | None = None) -> dict:
        node = node or self.root
        return {name: {"calls": c.calls, "total_s": c.total, "self_s": c.total - c.child_total,
                       "children": self.tree(c)} for name, c in node.children.items()}


def install() -> Tracer:
    """Wrap the public functions of every taksir module; return the tracer."""
    # import_module, not attribute access: the package re-exports a
    # function named ``segment`` over the submodule of that name.
    formdict = importlib.import_module("taksir.formdict")
    paradigm = importlib.import_module("taksir.paradigm")
    segment_mod = importlib.import_module("taksir.segment")
    tracer = Tracer()
    plain = [
        ("taksir.bn", "to_bn"),
        ("taksir.codes", "extract_root"),
        ("taksir.classes", "render_bp_stem"),
        ("taksir.lexicon", "parse_lexicon"),
        ("taksir.lexicon", "validate_entry"),
        ("taksir.formdict", "compile_lexicon"),
        ("taksir.segment", "load_clitics"),
        ("taksir.segment", "format_reading"),
        ("taksir.cli", "tokenize"),
        ("taksir.cli", "cmd_compile"),
    ]
    for module, attr in plain:
        fn = getattr(importlib.import_module(module), attr)
        tracer.patch_function(module, attr, tracer.wrap(f"{module[7:]}.{attr}", fn))

    inflect = tracer.wrap("paradigm.inflect", paradigm.inflect)

    def traced_inflect(entry, registry):
        forms = inflect(entry, registry)
        tracer.count("forms_generated", len(forms))
        return forms

    tracer.patch_function("taksir.paradigm", "inflect", traced_inflect)

    segment = tracer.wrap("segment.segment", segment_mod.segment)

    def traced_segment(token, dictionary, mode="strict", inventory=None):
        outer, ctx = tracer.segment_ctx, [0, set(), 0]
        tracer.segment_ctx = ctx
        try:
            lattice = segment(token, dictionary, mode, inventory)
        finally:
            tracer.segment_ctx = outer
        tracer.count("segment.lookups", ctx[0])
        tracer.count("segment.distinct", len(ctx[1]))
        tracer.count("segment.analyses", ctx[2])
        tracer.count("segment.readings", len(lattice.readings))
        tracer.count("segment.unk", not lattice.readings)
        return lattice

    tracer.patch_function("taksir.segment", "segment", traced_segment)

    cls = formdict.FormDictionary
    for attr in ("build", "from_bytes", "to_bytes", "dump_text"):
        fn = getattr(cls.__dict__[attr], "__func__", cls.__dict__[attr])
        tracer.patch_method(cls, attr, tracer.wrap(f"formdict.{attr}", fn))

    lookups = {mode: tracer.wrap(f"formdict.lookup.{mode}", cls.lookup) for mode in ("strict", "optional")}

    def traced_lookup(self, surface, mode="strict"):
        result = lookups["strict" if mode == "strict" else "optional"](self, surface, mode)
        tracer.count("lookup.hits", bool(result))
        ctx = tracer.segment_ctx
        if ctx is not None:
            ctx[0] += 1
            ctx[1].add(surface)
            ctx[2] += len(result)
        return result

    tracer.patch_method(cls, "lookup", traced_lookup)

    from_tag = paradigm.FeatureBundle.__dict__["from_tag"].__func__
    tracer.patch_method(paradigm.FeatureBundle, "from_tag", tracer.wrap("paradigm.from_tag", from_tag))
    return tracer
