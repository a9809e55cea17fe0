"""The benchmark's workloads: their inputs, one pass of calls, and output checks.

A workload is built from the benchmark seed alone. Its ``calls`` are the
fixed work of one pass, as (label, thunk) pairs; each thunk calls into
dagx through module attributes, so a tracer's wrappers are seen. After
timing, ``problems(label, outcome)`` compares each outcome with values
from ``reference``, never from the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
from fractions import Fraction

import reference as ref

WHY = {
    "sweep-levels": "turan n<=7, theorem x3 n<=6 and clique n<=8: per-mask level DP in harness self time",
    "sweep-predicates": "implications, equiv, closure, separations, boxes: a Dag and predicates per tiny graph",
    "analyze-instances": "analyze / boxes-graph on dense, sparse and box files; one exponential case under a deadline",
}


def _shuffled(items: list, seed: int, tag: str) -> list:
    out = list(items)
    random.Random(f"{seed}/{tag}").shuffle(out)
    return out


def _edge_list_edges(text: str) -> tuple[int, frozenset]:
    """(n, edges) of edge-list text, read without dagx."""
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return int(rows[0][1]), frozenset((int(u), int(v)) for u, v in rows[1:])


class Workload:
    name = ""
    deadline_s: float | None = None

    def __init__(self, dagx, seed: int, workdir: str) -> None:
        self.dagx = dagx
        self.seed = seed
        self.workdir = workdir

    def calls(self, pass_index: int) -> list[tuple[str, object]]:
        raise NotImplementedError

    def done(self, label: str, outcome) -> int:
        """Graphs, families or instances this call checked."""
        raise NotImplementedError

    def prepare_checks(self) -> list[str]:
        """Work the checks need, done after timing; returns problems found on the way."""
        return []

    def problems(self, label: str, outcome) -> list[str]:
        raise NotImplementedError

    def tamper(self) -> None:
        """Negative control: make one expected value wrong."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sweeps: verify_* calls at their default ranges, workers=1.


class Sweep(Workload):
    def __init__(self, dagx, seed: int, workdir: str) -> None:
        super().__init__(dagx, seed, workdir)
        self.checked = dict(ref.CHECKED)

    def _thunks(self) -> dict:
        raise NotImplementedError

    def calls(self, pass_index: int) -> list[tuple[str, object]]:
        return _shuffled(list(self._thunks().items()), self.seed, f"{self.name}/{pass_index}")

    def done(self, label: str, report) -> int:
        return report.checked

    def problems(self, label: str, report) -> list[str]:
        out = []
        if report.checked != self.checked[label]:
            out.append(f"checked {report.checked}, expected {self.checked[label]}")
        if report.violations:
            out.append(f"{len(report.violations)} violations, first: {report.violations[0]}")
        extra = getattr(self, "_check_" + label.split("-")[0], None)
        return out + (extra(report) if extra else [])

    def tamper(self) -> None:
        label = next(iter(self._thunks()))
        self.checked[label] += 1


class SweepLevels(Sweep):
    name = "sweep-levels"

    def _thunks(self) -> dict:
        h = self.dagx.harness
        return {
            "turan": lambda: h.verify_turan_bound(7),
            "theorem-extremely": lambda: h.verify_theorem_bound(6, "extremely"),
            "theorem-strongly": lambda: h.verify_theorem_bound(6, "strongly"),
            "theorem-reduced": lambda: h.verify_theorem_bound(6, "reduced"),
            "clique": lambda: h.verify_clique_bound(8),
        }

    def _check_turan(self, report) -> list[str]:
        observed = report.params["observed_max"]
        expected = {f"{n},{ell}": ref.turan_edges(n, ell + 1) for n in range(1, 8) for ell in range(n)}
        expected.update({f"6,{ell}": m for ell, m in ref.TURAN_MAX_N6.items()})
        return [] if observed == expected else [f"observed_max {observed} != {expected}"]

    def _check_theorem(self, report) -> list[str]:
        rows = {(row["n"], row["ell"]): row for row in report.params["tightness"]}
        want = {(n, ell) for n in range(2, 7) for ell in range(1, n)}
        if set(rows) != want:
            return [f"tightness rows {sorted(rows)} != {sorted(want)}"]
        return [
            f"n={n} ell={ell}: {row}"
            for (n, ell), row in rows.items()
            if not row["class_max"] == row["generator_edges"] == ref.reduced_bound(n, ell)
        ]


class SweepPredicates(Sweep):
    name = "sweep-predicates"

    def _thunks(self) -> dict:
        h = self.dagx.harness
        return {
            # dagx's default trial seed: the brute-force oracles' time and memory on
            # the 1000 random DAGs swing with the trial seed (1.45-1.99 s, 68-101 MB
            # peak RSS over six seeds), which would drown the figures being measured.
            "implications": lambda: h.verify_implications(5, random_trials=1000),
            "equiv-transitive": lambda: h.verify_equivalence_transitive(6),
            "closure": lambda: h.verify_closure(6),
            "separations": lambda: h.find_separations(6),
            "boxes": lambda: h.verify_box_props(1000, self.seed),
        }

    def _check_equiv(self, report) -> list[str]:
        got = report.params["transitive_graphs"]
        return [] if got == ref.TRANSITIVE_N6 else [f"transitive_graphs {got} != {ref.TRANSITIVE_N6}"]

    def _check_closure(self, report) -> list[str]:
        got = report.params["reduced_inputs"]
        return [] if got == ref.REDUCED_N6 else [f"reduced_inputs {got} != {ref.REDUCED_N6}"]

    def _check_separations(self, report) -> list[str]:
        found = {w["kind"]: _edge_list_edges(w["graph"]) for w in report.witnesses}
        want = {"reduced-not-strongly": (5, ref.CHORDED_CHAIN), "strongly-not-extremely": (5, ref.PLAIN_CHAIN5)}
        return [] if found == want else [f"witnesses {found} != {want}"]


# ---------------------------------------------------------------------------
# analyze-instances: in-process CLI calls over a seeded file set.


class DeadlineExceeded(BaseException):
    """Raised by the call deadline's signal; cli.main's ``except Exception`` lets it through."""


def _on_deadline(signum, frame):
    raise DeadlineExceeded


DEADLINE = "deadline"


def _edge_text(n: int, edges) -> str:
    return "\n".join([f"n {n}", *(f"{u} {v}" for u, v in sorted(edges))]) + "\n"


def _box_text(boxes) -> str:
    rows = ["id,ix_lo,ix_hi,jy_lo,jy_hi"]
    rows += [f"{name},{i[0]},{i[1]},{j[0]},{j[1]}" for name, i, j in boxes]
    return "\n".join(rows) + "\n"


def _random_dag(rng: random.Random, n: int, p: float) -> frozenset:
    return frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)


def _random_transverse(rng: random.Random, per_layer: int = 6) -> list:
    """Jittered columns, frames and slats; jitter stays under every nesting margin.

    Every family has the same size, so a seed changes coordinates, not the
    amount of box work, and the latency median does not move with the seed.
    """

    def jit(den: int = 32, span: int = 7) -> Fraction:
        return Fraction(rng.randint(-span, span), den)

    boxes = [(f"x{i}", (2 * i + jit(), 2 * i + 1 + jit()), (-10 + jit(), 10 + jit())) for i in range(1, per_layer + 1)]
    boxes += [
        (f"y{j}", (-(20 + j) + jit(), 20 + j + jit()), (-(10 - j) + jit(), 10 - j + jit()))
        for j in range(1, per_layer + 1)
    ]
    boxes += [
        (f"z{k}", (-40 + jit(), 40 + jit()), (Fraction(k, 10) + jit(320, 3), Fraction(k, 10) + Fraction(1, 20) + jit(320, 3)))
        for k in range(1, per_layer + 1)
    ]
    if not ref.is_transverse([(i, j) for _, i, j in boxes]):
        raise AssertionError("random transverse family generator produced a non-transverse family")
    return boxes


class AnalyzeInstances(Workload):
    name = "analyze-instances"
    # About 2.5 times the slowest call that finishes (the closed 13-chain, ~0.4 s).
    deadline_s = 1.0
    # Calls allowed to miss the deadline: only the closed 25-chain, which cannot finish today.
    may_miss = frozenset({"chain25"})

    def __init__(self, dagx, seed: int, workdir: str) -> None:
        super().__init__(dagx, seed, workdir)
        self.graphs: dict[str, tuple[int, frozenset, dict | None]] = {}
        self.box_sets: dict[str, tuple[list, frozenset | None]] = {}
        for n in range(8, 14):
            self.graphs[f"chain{n}"] = (n, ref.closed_chain_edges(n), ref.ALL_CLASSES)
        for n, ell in ((40, 5), (30, 6)):
            self.graphs[f"extremal{n}-{ell}"] = (n, ref.layered_edges(*ref.extremal_split(n, ell)), ref.ALL_CLASSES)
        for n in range(16, 65, 8):
            rng = random.Random(f"{seed}/dag/{n}")
            self.graphs[f"random{n}"] = (n, _random_dag(rng, n, 3 / n), None)
        # The closed 25-chain: exponential path-pair enumeration, deadline-bound.
        self.graphs["chain25"] = (25, ref.closed_chain_edges(25), ref.ALL_CLASSES)
        # Largest specs the documented coordinate scale accommodates.
        for r, l, s in ((9, 10, 9), (9, 5, 59), (9, 2, 89)):
            self.box_sets[f"boxes{r}-{l}-{s}"] = (ref.extremal_boxes(r, l, s), ref.layered_edges(r, l, s))
        for k in range(6):
            self.box_sets[f"transverse{k}"] = (_random_transverse(random.Random(f"{seed}/boxes/{k}")), None)
        self.paths = {}
        for name, (n, edges, _) in self.graphs.items():
            self.paths[name] = self._write(name + ".txt", _edge_text(n, edges))
        for name, (boxes, _) in self.box_sets.items():
            self.paths[name] = self._write(name + ".csv", _box_text(boxes))

    def _write(self, filename: str, text: str) -> str:
        path = os.path.join(self.workdir, filename)
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def _invoke(self, argv: list[str]):
        out = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_deadline)
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.dagx.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            return DEADLINE
        finally:
            signal.signal(signal.SIGALRM, previous)
        return code, out.getvalue()

    def calls(self, pass_index: int) -> list[tuple[str, object]]:
        thunks = [(name, lambda p=self.paths[name]: self._invoke(["analyze", p, "--format", "json"])) for name in self.graphs]
        thunks += [(name, lambda p=self.paths[name]: self._invoke(["boxes-graph", p])) for name in self.box_sets]
        return _shuffled(thunks, self.seed, f"{self.name}/{pass_index}")

    def done(self, label: str, outcome) -> int:
        return 0 if outcome is DEADLINE else 1

    def prepare_checks(self) -> list[str]:
        """Expected output per file, with random graphs classified by the reference;
        their verdicts must also match dagx's brute-force oracles where those finish."""
        dagx, out = self.dagx, []
        self.expected = {}
        for name, (n, edges, verdicts) in self.graphs.items():
            want = verdicts or ref.classify(n, edges)
            self.expected[name] = ref.analyze_expected(n, edges, want)
            if verdicts is not None:
                continue
            g = dagx.Dag(n, edges)
            try:
                if dagx.is_reduced_bruteforce(g, 10_000) != want["reduced"]:
                    out.append(f"{name}: is_reduced_bruteforce disagrees with the reference")
            except dagx.CapExceededError:
                pass
            try:
                if dagx.is_strongly_reduced_bruteforce(g, 2_000, 10_000) != want["strongly_reduced"]:
                    out.append(f"{name}: is_strongly_reduced_bruteforce disagrees with the reference")
            except dagx.CapExceededError:
                pass
        return out

    def tamper(self) -> None:
        self.expected["chain8"]["transitive"] = False

    def problems(self, label: str, outcome) -> list[str]:
        if outcome is DEADLINE:
            return [] if label in self.may_miss else [f"missed the {self.deadline_s} s deadline"]
        code, text = outcome
        if code != 0:
            return [f"exit {code}"]
        if label in self.graphs:
            got = json.loads(text)
            want = self.expected[label]
            return [] if got == want else [f"analyze output {got} != {want}"]
        boxes, layered = self.box_sets[label]
        lines = text.splitlines()
        ids = [line.split(" = ", 1)[1] for line in lines if line.startswith("# vertex ")]
        n, edges = _edge_list_edges("\n".join(line for line in lines if not line.startswith("#")))
        out = []
        if ids != [name for name, _, _ in boxes] or n != len(boxes):
            out.append(f"vertex ids {ids} do not match the file")
        if "# transverse: yes" not in lines:
            out.append("family not reported transverse")
        if edges != ref.box_graph([(i, j) for _, i, j in boxes]) or (layered is not None and edges != layered):
            out.append("intersection graph differs from the reference")
        return out


WORKLOADS = {cls.name: cls for cls in (SweepLevels, SweepPredicates, AnalyzeInstances)}
