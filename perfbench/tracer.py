"""Spans around the public functions of each viilattice module.

The tracer rebinds every wrapped function in every ``viilattice`` module
namespace that holds it, so ``curves.determinant`` is traced as well as
``linalg.determinant``, and ``nac.find_cycles`` beside
``curves.find_cycles``.  Leaving the ``with`` block puts every original
object back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

# (module, attribute); "Class.method" names a method on a class of the module
TARGETS = (
    ("configio", "config_from_text"),
    ("curves", "validate"),
    ("curves", "require_valid"),
    ("curves", "intersection_matrix"),
    ("curves", "is_negative_definite"),
    ("curves", "find_cycles"),
    ("curves", "sigma_classify"),
    ("curves", "CurveConfig.neighbors"),
    ("linalg", "determinant"),
    ("linalg", "leading_principal_minors"),
    ("linalg", "solve_exact"),
    ("nac", "solve_nac"),
    ("nac", "nac_structure_report"),
    ("nac", "verify_star_recurrence"),
    ("homology", "enumerate_representations"),
    ("homology", "verify_representation"),
    ("lattice", "classify_normal_form"),
    ("germs", "validate_strong"),
    ("germs", "validate_primary"),
    ("germs", "realize_enoki"),
    ("cli", "main"),
)


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


NAMES = tuple(metric_name(m, a) for m, a in TARGETS)


class Tracer:
    """Context manager that records one span per wrapped call."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.op_id = -1
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []  # indices of open spans
        self._child_ns: list[int] = []  # time covered by children of each open span
        self._patches: list = []  # (owner, attribute, original)

    def __enter__(self):
        import viilattice.cli  # noqa: F401  (imports every traced module)
        from viilattice.nac import NoSolution

        def after_solve(result):
            self.counts["nac.solve_nac.no_solution"] += isinstance(result, NoSolution)

        def after_enumerate(result):
            self.counts["homology.enumerate_representations.orbits"] += len(result)
            self.counts["homology.enumerate_representations.empty"] += not result

        after = {"nac.solve_nac": after_solve, "homology.enumerate_representations": after_enumerate}
        try:
            self._install(after)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self, after) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("viilattice")]
        for module_name, attr in TARGETS:
            name = metric_name(module_name, attr)
            module = sys.modules[f"viilattice.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[method]
                self._patch(owner, method, self._wrap(name, original, after.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def __exit__(self, *exc):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
        return False

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, after):
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                covered = child_ns.pop()
                if child_ns:
                    child_ns[-1] += end - start
                self.self_ns[name] += end - start - covered
                self.calls[name] += 1
                spans[index] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(result)
            return result

        return traced

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
