"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each listed public function of a dagx module
with a timing wrapper, under every name any dagx module holds it by
(``dagx.graph.reach_from_masks`` and ``dagx.predicates.reach_from_masks``
alike, and dict values such as a class-to-predicate table), so calls
between modules are seen too. ``uninstall`` puts the originals back.

A sweep pass makes about a million traced calls, so spans are not kept
one by one: each call adds its duration minus its children's durations to
its function's self time as it ends, which gives the same self times a
span list would.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# Public functions traced, by the dagx module that defines them.
TRACED = {
    "harness": (
        "verify_turan_bound",
        "verify_theorem_bound",
        "verify_clique_bound",
        "verify_implications",
        "verify_equivalence_transitive",
        "verify_closure",
        "find_separations",
        "verify_box_props",
    ),
    "predicates": (
        "is_reduced",
        "is_strongly_reduced",
        "is_extremely_reduced",
        "is_transitive",
        "transitive_closure",
        "path_vertex_masks",
        "enumerate_paths",
        "is_reduced_bruteforce",
        "is_strongly_reduced_bruteforce",
    ),
    "graph": (
        "reach_from_masks",
        "reach_to_masks",
        "levels",
        "level_partition",
        "topological_order",
        "all_topological_orders",
        "parse_edge_list",
        "format_edge_list",
    ),
    "generators": (
        "random_dag",
        "turan_dag",
        "extremal_for",
        "extremal_dag",
        "dag_from_index",
        "enumerate_dags",
    ),
    "boxes": (
        "directed_intersection_graph",
        "is_transverse_family",
        "random_transverse_family",
        "random_box_family",
        "extremal_box_family",
        "parse_box_csv",
    ),
    "cli": ("main",),
}

# Work counts taken from return values: function -> (counter, amount).
ITEMS = {
    "predicates.path_vertex_masks": ("predicates.path_masks", len),
    "graph.all_topological_orders": ("graph.all_topological_orders.orders", len),
    "boxes.random_transverse_family": ("boxes.families_returned", lambda _family: 1),
}


class Tally:
    """Counts and self times of one top-level call, or of a whole pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.items: Counter = Counter()
        self.child_calls: Counter = Counter()  # (parent function, function) -> calls

    def merge(self, other: "Tally") -> None:
        self.calls.update(other.calls)
        self.self_s.update(other.self_s)
        self.items.update(other.items)
        self.child_calls.update(other.child_calls)


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[dict, str, object]] = []
        self._stack: list[list] = []
        self.current = Tally()  # the top-level call in progress
        self.total = Tally()  # the pass so far
        self.by_root: Counter = Counter()  # (top-level label, function) -> calls

    def _wrap(self, name: str, fn):
        item = ITEMS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                tally = self.current
                tally.calls[name] += 1
                tally.self_s[name] += dt - frame[1]
                tally.child_calls[parent, name] += 1
            if item is not None:
                self.current.items[item[0]] += item[1](result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"dagx.{layer}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[fn] = self._wrap(f"{layer}.{fn_name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dagx" and not mod_name.startswith("dagx."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        if callable(v) and v in wrappers:
                            self._patches.append((value, k, v))
                            value[k] = wrappers[v]
                elif callable(value) and value in wrappers:
                    self._patches.append((namespace, key, value))
                    namespace[key] = wrappers[value]

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    def reset(self) -> None:
        self.total = Tally()
        self.by_root = Counter()

    def start(self) -> None:
        # A deadline signal can land inside a wrapper's bookkeeping and leave
        # a stale frame behind; each top-level call starts from an empty stack.
        self._stack.clear()
        self.current = Tally()

    def finish(self, label: str, keep: bool) -> None:
        """Close one top-level call; a discarded call keeps only its own call count.

        Only ``cli.main`` calls run under a deadline. One cut off did a
        speed-dependent amount of work below it, so its child counts and
        times are dropped to keep counts exact.
        """
        if keep:
            self.total.merge(self.current)
            for name, n in self.current.calls.items():
                self.by_root[label, name] += n
        else:
            self.total.calls["cli.main"] += 1
            self.total.items["cli.main.deadline_misses"] += 1
        self.current = Tally()
