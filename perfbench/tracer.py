"""Per-layer tracing of maxord from outside the package.

``Tracer.install`` replaces public entry points of the maxord modules with
wrappers: counters where calls are too fine to time (``rings`` xgcd), and
spans elsewhere.  A span records inclusive time (outermost activation of
its name only) and self time (minus the time of spans nested inside it).
A stack sampler attributes wall time to the innermost maxord module on the
main thread's stack, which gives each module's self share.
"""

import collections
import inspect
import os
import sys
import threading
import time

# (module, function or method name, metric prefix, kind).  "count" only
# counts calls; "span" also times them.  A name is wrapped wherever the
# module defines it: as a module function and as a method of any class.
TARGETS = [
    ("rings", "xgcd", "rings.xgcd", "count"),
    ("rings", "factor", "rings.factor", "span"),
    ("exactlin", "hnf", "exactlin.hnf", "span"),
    ("exactlin", "snf", "exactlin.snf", "span"),
    ("exactlin", "rref", "exactlin.rref", "count"),
    ("exactlin", "inverse", "exactlin.inverse", "count"),
    ("algebras", "central_idempotents", "algebras.central_idempotents",
     "span"),
    ("algebras", "min_poly", "algebras.min_poly", "count"),
    ("finitealg", "radical_basis", "finitealg.radical_basis", "span"),
    ("finitealg", "charpoly_mod", "finitealg.charpoly_mod", "count"),
    ("orders", "residue_algebra", "orders.residue_algebra", "count"),
    ("orders", "idealizer", "orders.idealizer", "span"),
    ("orders", "p_maximal_order", "orders.p_maximal_order", "span"),
    ("orders", "is_maximal_at_p", "orders.is_maximal_at_p", "span"),
    ("serre", "tensor_lattice", "serre.tensor_lattice", "span"),
    ("serre", "tensor_isogeny_class", "serre.tensor_isogeny_class", "span"),
    ("serre", "minimal_isogeny", "serre.minimal_isogeny", "span"),
]

LAYERS = ["rings", "exactlin", "algebras", "finitealg", "orders", "serre"]


def _entry_bits(value):
    """Size of a matrix entry: bit length of its numerator over Z,
    coefficient count times coefficient bits over F_p[t]."""
    value = getattr(value, "num", value)
    if isinstance(value, int):
        return abs(value).bit_length()
    return len(value) * max((c.bit_length() for c in value), default=0)


class Tracer:
    def __init__(self, package):
        self.package = package  # the imported maxord package
        self.pkg_dir = os.path.dirname(os.path.abspath(package.__file__))
        self.counts = collections.Counter()
        self.incl = collections.Counter()
        self.self_time = collections.Counter()
        self.samples = collections.Counter()
        self.max_bits = 0
        self.hook_errors = set()
        self._stack = []  # [name, start, time covered by child spans]
        self._depth = collections.Counter()
        self._undo = []
        self._sampling = False
        self._thread = None
        self._stop = threading.Event()

    # -- wrappers -----------------------------------------------------------

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            tracer._depth[name] += 1
            frame = [name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                dur = end - frame[1]
                tracer.self_time[name] += dur - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                if not tracer._depth[name]:
                    tracer.incl[name] += dur
            if after is not None:
                try:
                    after(args, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    # a changed signature: the figure is lost, and the
                    # run reports it rather than a 0
                    tracer.hook_errors.add("%s: %r" % (name, exc))
            return result

        return wrapper

    def _hnf_after(self, args, result):
        m = args[0]
        for rows in (m.rows, result[0].rows):
            for row in rows:
                for x in row:
                    bits = _entry_bits(x)
                    if bits > self.max_bits:
                        self.max_bits = bits

    def _idealizer_after(self, args, result):
        if result.lattice != args[0].lattice:
            self.counts["orders.idealizer.useful"] += 1

    # -- installation ---------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items())
                if name.startswith(prefix) and m is not None]

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def _wrap(self, fn, name, kind):
        if kind == "count":
            return self._counter(fn, name + ".calls")
        after = {"exactlin.hnf": self._hnf_after,
                 "orders.idealizer": self._idealizer_after}.get(name)
        return self._span(fn, name, after)

    def install(self):
        """Wrap the targets; returns the names found nowhere."""
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        plain = []  # (original function, wrapper) for module-level names
        missing = []
        for mod_name, attr, name, kind in TARGETS:
            mod = by_name.get(mod_name)
            found = False
            for value in list(vars(mod).values()) if mod else []:
                if (isinstance(value, type)
                        and value.__module__ == mod.__name__
                        and inspect.isfunction(value.__dict__.get(attr))):
                    self._patch(value, attr,
                                self._wrap(value.__dict__[attr], name, kind))
                    found = True
            fn = vars(mod).get(attr) if mod else None
            if callable(fn):
                plain.append((fn, self._wrap(fn, name, kind)))
                found = True
            if not found:
                missing.append(name)
        # serialize: the parse_* and format_* functions the CLI imports
        ser, cli = by_name.get("serialize"), by_name.get("cli")
        for attr, fn in list(vars(cli).items()) if ser and cli else []:
            if getattr(fn, "__module__", None) == ser.__name__:
                if attr.startswith("parse_"):
                    plain.append((fn, self._span(fn, "serialize.parse")))
                elif attr.startswith("format_"):
                    plain.append((fn, self._span(fn, "serialize.format")))
        # a function imported by name into other modules is replaced there too
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                for fn, wrapper in plain:
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        return missing

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- stack sampler --------------------------------------------------------

    def start_sampler(self, interval=0.002):
        main_id = threading.main_thread().ident
        pkg_dir = self.pkg_dir + os.sep

        def loop():
            while not self._stop.wait(interval):
                if not self._sampling:
                    continue
                frame = sys._current_frames().get(main_id)
                where = "other"
                while frame is not None:
                    path = frame.f_code.co_filename
                    if path.startswith(pkg_dir):
                        where = os.path.basename(path)[:-3]
                        break
                    frame = frame.f_back
                self.samples[where] += 1

        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def sampling(self, on):
        self._sampling = on

    def stop_sampler(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def snapshot(self):
        """Copies of the accumulators, for per-execution deltas."""
        return {
            "counts": collections.Counter(self.counts),
            "incl": collections.Counter(self.incl),
            "self": collections.Counter(self.self_time),
        }
