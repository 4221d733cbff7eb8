"""Per-layer spans around compenum's public functions, added at run time.

`Tracer.install` replaces every public function and method defined in
compenum's modules with a wrapper that records a span, in the defining
module and in every module that imported the same object, so spans nest
along the real call path.  Nothing under src/ is edited, and
`uninstall` puts the originals back.

Each span's self time (its duration minus its child spans) is charged
to a layer.  The spans named in LAYERS are layers of their own; every
compenum.cli function is the `cli.self` layer; any other span (a helper
such as poly_gcd under RationalGF.reduce) is charged to the nearest
enclosing layer span.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

LAYERS = {
    "partset.parse_setspec": "partset.parse_setspec",
    "genfun.composition_gf": "genfun.composition_gf",
    "genfun.count": "genfun.count",
    "polyring.RationalGF.reduce": "polyring.reduce",
    "polyring.RationalGF.series": "polyring.series",
    "recurrence.recurrence_from_gf": "recurrence.from_gf",
    "recurrence.LinearRecurrence.from_dict": "recurrence.from_dict",
    "recurrence.LinearRecurrence.terms": "recurrence.terms",
    "recurrence.LinearRecurrence.nth": "recurrence.nth",
    "recurrence.LinearRecurrence.nth_mod": "recurrence.nth_mod",
    "closedform.find_roots": "closedform.find_roots",
    "closedform.partial_fractions": "closedform.partial_fractions",
    "closedform.dominance_report": "closedform.dominance_report",
    "closedform.eval_closed": "closedform.eval_closed",
    "bivariate.bivariate_table": "bivariate.table",
}

# counts taken from a span's result: terms built, table entries built
RESULT_COUNTS = {
    "recurrence.LinearRecurrence.terms": ("recurrence.terms_len", len),
    "bivariate.bivariate_table": (
        "bivariate.cells",
        lambda table: sum(len(row) for row in table.entries),
    ),
}
CALL_COUNTS = {"closedform.find_roots": "closedform.find_roots_calls"}
REFUSAL_COUNTS = {("closedform.find_roots", "RepeatedRootError"): "closedform.repeated_root_refusals"}


def _layer_of(name):
    return "cli.self" if name.startswith("cli.") else LAYERS.get(name)


class Tracer:
    """Collects spans for one operation at a time.

    `begin(op_key)` starts an operation; `end()` returns its layer self
    times in ms and its counts.  Every span is also kept, as
    (op_key, id, parent id, name, start, end), for `write`.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        self._op = None
        self._self = {}
        self._counts = {}

    # -- spans ------------------------------------------------------------

    def begin(self, op_key):
        self._op = op_key
        self._self = {}
        self._counts = {}

    def end(self):
        result = ({k: v * 1000 for k, v in self._self.items()}, self._counts)
        self._op = None
        return result

    def _count(self, name, amount=1):
        self._counts[name] = self._counts.get(name, 0) + amount

    def _enter(self, name):
        frame = [name, _layer_of(name), perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)  # filled on exit, keeps ids in call order
        if name in CALL_COUNTS:
            self._count(CALL_COUNTS[name])
        self._stack.append(frame)
        return frame

    def _exit(self, frame, result=None, error=None):
        end = perf_counter()
        self._stack.pop()
        name, layer, start, child, span_id = frame
        duration = end - start
        if layer is None:
            layer = next((f[1] for f in reversed(self._stack) if f[1]), name)
        self._self[layer] = self._self.get(layer, 0.0) + duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[span_id] = (self._op, span_id, parent[4] if parent else None, name, start, end)
        if error is not None:
            key = (name, type(error).__name__)
            if key in REFUSAL_COUNTS:
                self._count(REFUSAL_COUNTS[key])
        elif name in RESULT_COUNTS:
            counter, measure = RESULT_COUNTS[name]
            self._count(counter, measure(result))

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, error=exc)
                raise
            tracer._exit(frame, result=result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, modules):
        """Wrap the public functions and methods defined in `modules`."""
        replaced = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._install_methods(obj, f"{short}.{attr}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, replaced[obj])

    def _install_methods(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name)
            else:
                continue  # properties and data
            self._originals.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                "start": start, "end": end})
                    + "\n"
                )
