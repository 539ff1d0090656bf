"""Span tracing installed from outside the fourpoint package.

`install` replaces the module and class attributes through which the
package's layers call each other (for example `fourpoint.protocol.s_M`,
which is how `alice_generate` reaches the generating function) with thin
wrappers that record one span per call. `uninstall` puts the originals
back, so untraced code runs the unmodified package.

A span is (name, start, end, parent, operation id). Spans are kept in
flat arrays while the run is live and written out once at the end. A
layer's self time is its duration minus the time its child spans cover;
calls are strictly nested on one thread, so children never overlap.
"""

from array import array
from collections import Counter
import functools
import gzip
import importlib
from time import perf_counter_ns

# (module, attribute path, span name). One function is listed once per
# module that imported it by name, since each such module calls its own
# binding. The span name is the layer that defines the function.
SITES = (
    ("fourpoint.protocol", "derive_session", "protocol.derive_session"),
    ("fourpoint.protocol", "alice_generate", "protocol.alice_generate"),
    ("fourpoint.protocol", "bob_verify", "protocol.bob_verify"),
    ("fourpoint.protocol", "compute_check", "protocol.compute_check"),
    ("fourpoint.protocol", "serialize", "protocol.serialize"),
    ("fourpoint.protocol", "deserialize", "protocol.deserialize"),
    ("fourpoint.protocol", "s_M", "genfunc.s_M"),
    ("fourpoint.protocol", "check_denominator", "invariant.check_denominator"),
    ("fourpoint.protocol", "recover_v", "invariant.recover_v"),
    ("fourpoint.oscillator", "generate", "oscillator.generate"),
    ("fourpoint.genfunc", "eval_at", "oscillator.eval_at"),
    ("fourpoint.genfunc", "mod_inv", "modmath.mod_inv"),
    ("fourpoint.genfunc", "mod_pow", "modmath.mod_pow"),
    ("fourpoint.invariant", "s_M", "genfunc.s_M"),
    ("fourpoint.invariant", "mod_inv", "modmath.mod_inv"),
    ("fourpoint.invariant", "mod_pow", "modmath.mod_pow"),
    ("fourpoint.modmath", "mod_inv", "modmath.mod_inv"),
    ("fourpoint.modmath", "FieldElem.__pow__", "modmath.pow"),
    ("fourpoint.modmath", "EvalPoint.__init__", "modmath.EvalPoint"),
    ("fourpoint.harness", "new_game", "harness.new_game"),
    ("fourpoint.harness", "random_adversary", "harness.random_adversary"),
    ("fourpoint.harness", "adjudicate", "harness.adjudicate"),
    ("fourpoint.harness", "lemma1_exhaustive", "harness.lemma1_exhaustive"),
    ("fourpoint.harness", "derive_session", "protocol.derive_session"),
    ("fourpoint.harness", "alice_generate", "protocol.alice_generate"),
    ("fourpoint.harness", "bob_verify", "protocol.bob_verify"),
    ("fourpoint.harness", "compute_check", "protocol.compute_check"),
    ("fourpoint.harness", "s_M", "genfunc.s_M"),
    ("fourpoint.harness", "recover_v", "invariant.recover_v"),
)

# Spans whose return value is tagged: the oscillator mode ("table" or
# "prf") tells how often generate() built a table.
_CLASSIFY = {
    "oscillator.generate": lambda osc: getattr(osc, "mode", "?"),
}

OP_SPAN = "bench.op"


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors = Counter()  # (span name, exception class) -> count
        self.tags = Counter()    # (span name, result tag) -> count
        self._stack = []
        self._op_id = -1
        self._op_nid = self.name_id(OP_SPAN)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def begin_op(self) -> int:
        """Open the root span of the next operation; spans below share its id."""
        self._op_id += 1
        return self.open(self._op_nid)

    def summarize(self) -> dict:
        """Per span name: calls, inclusive ns, self ns; plus top-level ns.

        Top-level time is the time covered by layer spans whose parent
        is an operation root.
        """
        n = len(self.name)
        child = array("q", bytes(8 * n))
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        incl = Counter()
        self_ns = Counter()
        top = 0
        op_nid = self._op_nid
        for i in range(n):
            d = end[i] - start[i]
            nid = name[i]
            calls[nid] += 1
            incl[nid] += d
            self_ns[nid] += d - child[i]
            p = parent[i]
            if p >= 0 and name[p] == op_nid:
                top += d
        per_name = {self.names[nid]: {"calls": calls[nid], "incl_ns": incl[nid],
                                      "self_ns": self_ns[nid]}
                    for nid in calls}
        return {"spans": per_name, "top_ns": top}

    def write(self, path) -> None:
        """All spans as gzip'd CSV: op, name, parent index, start, end (ns)."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("op,name,parent,start_ns,end_ns\n")
            names = self.names
            fh.writelines(
                f"{o},{names[nid]},{p},{s - t0},{e - t0}\n"
                for o, nid, p, s, e in zip(self.op, self.name, self.parent,
                                           self.start, self.end))


def _wrap(fn, tracer: Tracer, span: str):
    nid = tracer.name_id(span)
    open_, close, errors = tracer.open, tracer.close, tracer.errors
    classify = _CLASSIFY.get(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = open_(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            errors[span, type(exc).__name__] += 1
            raise
        finally:
            close(i)
        if classify is not None:
            tracer.tags[span, classify(result)] += 1
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every site that exists; return (restore list, absent sites).

    A site that a later version of the package removed or renamed is
    reported as absent instead of failing the run.
    """
    restore = []
    absent = []
    for modname, path, span in SITES:
        try:
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            absent.append(f"{modname}.{path}")
            continue
        restore.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, tracer, span))
    return restore, absent


def uninstall(restore) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
