"""Outside-in span tracer for the gradlite package.

The tracer edits no file of the package.  `install()` replaces each traced
function, under every name that refers to it in any loaded ``gradlite.*``
module, by a wrapper that records a span; `remove()` puts the originals
back.  Class attributes are wrapped for ``RunMetrics.write_csv`` /
``write_summary``, ``SplitMix64.normals`` and the ``loss``,
``error_signal``, ``jacobian`` and ``solve_optimum`` methods of every
``Problem`` subclass.  After wrapping, every module and class of the package
is searched for a reference to an original; one left over is an error,
because calls through it would go untimed and silently shift time into the
caller's self time.

Each span records the SPAN_FIELDS: its id, name, start, end, parent (-1
for a root span), invocation id, step id, block, self time, whether it is
in-loop and its computed work.  Spans stay in memory and are written out by
`write_spans` at the end.

Time accounting.  A wrapper reads the clock on entry, just before the call,
just after it and on exit.  A span's self time is its duration minus the
entry-to-exit time of its direct children, so the wrapper's own bookkeeping
never lands in a caller's self time.  Summed over all spans, self time plus
bookkeeping equals the root span's duration exactly.

Which calls count "per step".  A call is in-loop when it is not nested
inside set-up (``harness.build_problem`` or
``optimizers.init_gradlite_state``) and the current run has begun its first
step.  Per-step counts and times cover in-loop calls only; set-up work is
reported per call (``.ms``).  The step-0 factorization therefore belongs to
set-up, and ``lowrank.factorize.calls`` counts refreshes only.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "gradlite"

# (module, function) pairs; the span is named "<module>.<function>".
FUNCTIONS = (
    ("cli", "main"),
    ("harness", "run_experiment"),
    ("harness", "rate_sweep"),
    ("harness", "rate_check"),
    ("harness", "build_problem"),
    ("optimizers", "init_gradlite_state"),
    ("optimizers", "gradlite_step"),
    ("lowrank", "factorize"),
    ("lowrank", "projected_signal"),
    ("lowrank", "approx_gradient"),
    ("feedback", "correct"),
    ("feedback", "estimate_delta"),
    ("feedback", "update_accumulator"),
    ("linalg", "matvec"),
    ("linalg", "matvec_t"),
    ("linalg", "truncated_svd"),
)

# (module, class, method, span name) for single classes.
METHODS = (
    ("harness", "RunMetrics", "write_csv", "harness.write"),
    ("harness", "RunMetrics", "write_summary", "harness.write"),
    ("rng", "SplitMix64", "normals", "rng.normals"),
)

# Wrapped on every Problem subclass that defines them; span "problems.<m>".
PROBLEM_METHODS = ("loss", "error_signal", "jacobian", "solve_optimum")

SETUP_SPANS = ("harness.build_problem", "optimizers.init_gradlite_state")
SPAN_FIELDS = ("span", "name_id", "start_ns", "end_ns", "parent", "invocation", "step",
               "block", "self_ns", "in_loop", "work")
KERNELS = ("linalg.matvec", "linalg.matvec_t")


class AliasLeftError(RuntimeError):
    """A reference to an unwrapped original survived `install()`."""


def _modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def _classes(modules):
    seen = {}
    for mod in modules.values():
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith(PACKAGE):
                seen[id(val)] = val
    return list(seen.values())


class Tracer:
    """Span recorder; install around the calls to trace, then remove."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        # Flat 64-bit columns, SPAN_FIELDS per span, appended as spans close;
        # a traced run keeps a few hundred thousand spans.
        self._spans = array("q")
        self.step_latency_ns: list[int] = []
        self.bookkeeping_ns = 0
        self.refreshes = 0
        self.same_input_refreshes = 0
        self._stack: list[list] = []
        self._next_id = 0
        self.invocation = -1
        self._step = -1
        self._run_steps = 0
        self._setup_depth = 0
        self._block = 0
        self._prev_j: dict[int, np.ndarray] = {}

    # -- installation ------------------------------------------------------
    def _sid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target under every alias; raise if one is missed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        try:
            for mod_name, func_name in FUNCTIONS:
                owner = modules[f"{PACKAGE}.{mod_name}"]
                original = getattr(owner, func_name)
                wrapper = self._wrapper(f"{mod_name}.{func_name}", original)
                self._originals[id(original)] = f"{mod_name}.{func_name}"
                for mod in modules.values():
                    for alias, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, alias, wrapper)
            for mod_name, cls_name, meth, span in METHODS:
                cls = getattr(modules[f"{PACKAGE}.{mod_name}"], cls_name)
                self._wrap_method(cls, meth, span)
            problems = modules[f"{PACKAGE}.problems"]
            subclasses = [c for c in _classes({"p": problems})
                          if issubclass(c, problems.Problem) and c is not problems.Problem]
            for meth in PROBLEM_METHODS:
                owners = [c for c in subclasses if meth in vars(c)]
                if not owners:
                    raise AliasLeftError(f"no Problem subclass defines {meth!r}")
                for cls in owners:
                    self._wrap_method(cls, meth, f"problems.{meth}")
            self._check_no_alias_left(modules)
        except BaseException:
            self.remove()
            raise

    def _wrap_method(self, cls, meth: str, span: str):
        original = vars(cls)[meth]
        self._originals[id(original)] = f"{cls.__name__}.{meth}"
        self._patch(cls, meth, self._wrapper(span, original))

    def _check_no_alias_left(self, modules):
        holders = list(modules.values()) + _classes(modules)
        left = [f"{getattr(h, '__name__', h)}.{alias} -> {self._originals[id(val)]}"
                for h in holders for alias, val in vars(h).items()
                if id(val) in self._originals]
        if left:
            raise AliasLeftError("unwrapped aliases: " + ", ".join(sorted(left)))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------
    def start_invocation(self):
        self.invocation += 1
        self._step = -1
        self._run_steps = 0
        self._setup_depth = 0
        self._block = 0
        self._prev_j = {}

    def _wrapper(self, name: str, fn):
        sid = self._sid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(sid, name, fn, args, kwargs)
        return wrapper

    def _call(self, sid, name, fn, args, kwargs):
        enter = perf_counter_ns()
        work = 0
        setup = name in SETUP_SPANS
        if name == "optimizers.gradlite_step":
            self._step += 1
            self._run_steps += 1
            self._block = 0
        elif name == "optimizers.init_gradlite_state":
            self._run_steps = 0
            self._prev_j = {}
        elif name == "problems.jacobian":
            self._block = int(args[3] if len(args) > 3 else kwargs.get("block", 0))
        elif name in KERNELS:
            shape = np.shape(args[0] if args else kwargs["a"])
            work = 2 * shape[0] * shape[1]
        in_loop = self._setup_depth == 0 and self._run_steps > 0 and not setup
        if name == "lowrank.factorize":
            self._note_factor_input(np.asarray(args[0] if args else kwargs["j"]), in_loop)
        if setup:
            self._setup_depth += 1
        block = self._block
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            if setup:
                self._setup_depth -= 1
            incl = end - start
            self._spans.extend((frame[0], sid, start, end, parent[0] if parent else -1,
                                self.invocation, self._step, block,
                                incl - frame[1], in_loop, work))
            if name == "optimizers.gradlite_step":
                self.step_latency_ns.append(incl)
            leave = perf_counter_ns()
            self.bookkeeping_ns += (start - enter) + (leave - end)
            if parent is not None:
                parent[1] += leave - enter

    def _note_factor_input(self, j: np.ndarray, in_loop: bool):
        prev = self._prev_j.get(self._block)
        if in_loop:
            self.refreshes += 1
            if prev is not None and prev.shape == j.shape and prev.tobytes() == j.tobytes():
                self.same_input_refreshes += 1
        self._prev_j[self._block] = j.copy()

    # -- output ------------------------------------------------------------
    def spans(self):
        """Iterate spans as tuples of SPAN_FIELDS, in closing order."""
        return zip(*[iter(self._spans)] * len(SPAN_FIELDS))

    def write_spans(self, path):
        """Write every span, gzip-compressed, one tab-separated line each in
        closing order.  Times are ns after the earliest span's start; a
        span's name is the header's name list indexed by its name id."""
        t0 = min(self._spans[2::len(SPAN_FIELDS)], default=0)
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("# names: " + " ".join(self.names) + "\n")
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for span in self.spans():
                fields = list(span)
                fields[2] -= t0
                fields[3] -= t0
                fh.write("\t".join(map(str, fields)) + "\n")
