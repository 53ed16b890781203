"""In-memory span tracer that wraps cmfg's public functions from outside.

Spans are recorded at the boundary of every public function of the traced
modules, under the name ``<module>.<function>`` of the module that defines
it.  A function that another module imports by name (``from .lp import
solve_lp``) is looked up through that module's globals, so the tracer
replaces every binding of the function in every loaded ``cmfg`` module, not
only the defining one.  Nothing inside the package changes: counts that need
a hook inside a function body (simplex pivots, memo hits) are out of reach.

Each span is (name, start, end, parent index, attributes); attributes hold
the counts taken from a call's arguments or result.  The spans stay in
memory until ``write_jsonl`` writes them out after the measurement.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import sys
import time

TRACED_MODULES = ("cli", "io", "mfg", "nplayer", "lp", "limits", "transport", "rng")


def _joint_states(args, kwargs, result):
    game, strategies = args[0], args[1]
    return {"joint_states": len(game.states) ** len(strategies)}


def _lp_size(args, kwargs, result):
    lp = args[0]
    return {"rows": len(lp.rows), "vars": len(lp.variables)}


def _deviation_method(args, kwargs, result):
    return {"method": result.method}


def _uniforms(args, kwargs, result):
    return {"uniforms": int(result.size)}


def _empirical_atoms(args, kwargs, result):
    return {"atoms": len(result.flow.atoms)}


def _transport_atoms(args, kwargs, result):
    return {"atoms": len(result.row_duals) + len(result.col_duals)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# counts recorded per call, keyed by span name
ATTRIBUTES = {
    "nplayer.exact_joint_propagate": _joint_states,
    "lp.solve_lp": _lp_size,
    "nplayer.deviation_gain": _deviation_method,
    "rng.uniform_block": _uniforms,
    "limits.empirical_rho_n": _empirical_atoms,
    "transport.solve_transport": _transport_atoms,
    "io.write_json_atomic": _written_bytes,
    "io.write_csv_atomic": _written_bytes,
    "io.write_text_atomic": _written_bytes,
}


class Tracer:
    """Records nested spans; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        attrs_of = ATTRIBUTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of a traced module's public functions."""
        targets = {f"cmfg.{m}" for m in TRACED_MODULES}
        self._patched = patch_functions(
            lambda fn: fn.__module__ in targets and not fn.__name__.startswith("_"),
            lambda fn: self.wrap(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}", fn),
        )

    def uninstall(self) -> None:
        unpatch(self._patched)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, attrs in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


def patch_functions(select, wrap) -> list[tuple[object, str, object]]:
    """Replaces every binding of the selected cmfg functions with a wrapper.

    Every loaded ``cmfg`` module's globals are searched, so a function that
    another module imports by name, or that its own module calls through
    its globals, runs the wrapper.  One wrapper is made per function.
    Returns the replaced bindings, for ``unpatch``.
    """
    wrappers: dict[int, object] = {}
    patched = []
    modules = [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "cmfg" or key.startswith("cmfg."))
    ]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("cmfg"):
                continue
            if not select(obj):
                continue
            wrapper = wrappers.get(id(obj))
            if wrapper is None:
                wrapper = wrappers[id(obj)] = wrap(obj)
            patched.append((mod, attr, obj))
            setattr(mod, attr, wrapper)
    return patched


def unpatch(patched: list[tuple[object, str, object]]) -> None:
    for mod, attr, obj in reversed(patched):
        setattr(mod, attr, obj)
    patched.clear()


class CallClock:
    """Timestamps every call of a traced module's functions, private ones too.

    Two passes of the same jobs on the same inputs make the same calls in
    the same order (cmfg keeps no caches between calls), so the k-th stamp
    marks the same point of the work in both: the stamps are progress marks
    that need no hook inside the program.  A stamp costs a wrapper call.

    With a ``probe``, the first call after every ``every`` seconds runs it
    first and records how long it took.  The clock stops while a probe runs,
    so ``now()`` and the stamps count the program's time only.
    """

    def __init__(self, probe=None, every: float = 0.05):
        self.stamps = array.array("d")
        self.probes = array.array("d")  # seconds of each probe
        self.probed_at = array.array("d")  # ``now()`` when each probe ended
        self._paused = [0.0]  # seconds spent in probes so far
        self._probe, self._every = probe, every
        self._patched: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused[0]

    def install(self) -> None:
        stamp, clock, paused = self.stamps.append, time.perf_counter, self._paused
        probe, every, probes = self._probe, self._every, self.probes
        probed_at = self.probed_at
        due = [clock() if probe is not None else float("inf")]

        def wrap(fn):
            @functools.wraps(fn)
            def marked(*args, **kwargs):
                now = clock()
                if now >= due[0]:
                    probe()
                    done = clock()
                    probes.append(done - now)
                    paused[0] += done - now
                    probed_at.append(done - paused[0])
                    due[0] = done + every
                    now = done
                stamp(now - paused[0])
                return fn(*args, **kwargs)

            return marked

        targets = {f"cmfg.{m}" for m in TRACED_MODULES}
        self._patched = patch_functions(lambda fn: fn.__module__ in targets, wrap)

    def uninstall(self) -> None:
        unpatch(self._patched)


def _is_reader(function: str) -> bool:
    return (
        function.startswith("read")
        or "_from_" in function
        or function in ("parse_scalar", "common_initial_measure")
    )


def layer_metrics(spans: list[list], names) -> dict[str, float]:
    """Per-layer times and counts from one traced pass, for the given names.

    ``cli.self_s``, ``io.read_s``, ``io.write_s`` and ``io.write_bytes``
    cover a whole layer.  Otherwise a name is a span key plus a suffix:
    ``.s`` sums the key's outermost spans, ``.self_s`` subtracts from each
    span the time its direct children cover, ``.calls`` counts spans, and
    any other suffix sums that attribute over calls.  The span key of
    ``nplayer.deviation_gain`` carries the method, as in ``...gain.mc``.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def has_ancestor(i: int, match) -> bool:
        parent = spans[i][3]
        while parent is not None:
            if match(spans[parent][0]):
                return True
            parent = spans[parent][3]
        return False

    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    layer = {"cli.self_s": 0.0, "io.read_s": 0.0, "io.write_s": 0.0, "io.write_bytes": 0}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        attrs = attrs or {}
        key = f"{name}.{attrs['method']}" if "method" in attrs else name
        dur = end - start
        calls[key] = calls.get(key, 0) + 1
        own[key] = own.get(key, 0.0) + dur - child_time[i]
        if not has_ancestor(i, lambda other: other == name):
            total[key] = total.get(key, 0.0) + dur
        for attr, value in attrs.items():
            if attr != "method":
                sums[f"{key}.{attr}"] = sums.get(f"{key}.{attr}", 0) + value
        module, function = name.split(".", 1)
        if module == "cli":
            layer["cli.self_s"] += dur - child_time[i]
        elif module == "io":
            layer["io.write_bytes"] += attrs.get("bytes", 0)
            if not has_ancestor(i, lambda other: other.startswith("io.")):
                layer["io.read_s" if _is_reader(function) else "io.write_s"] += dur
    out = {}
    for metric in names:
        if metric in layer:
            out[metric] = layer[metric]
            continue
        key, suffix = metric.rsplit(".", 1)
        if suffix == "s":
            out[metric] = total.get(key, 0.0)
        elif suffix == "self_s":
            out[metric] = own.get(key, 0.0)
        elif suffix == "calls":
            out[metric] = calls.get(key, 0)
        else:
            out[metric] = sums.get(metric, 0)
    return out


def top_level_seconds(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent is None)
