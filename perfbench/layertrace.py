"""Outside-in per-layer trace of the simulator.

:meth:`LayerTrace.install` wraps the public functions of each layer's
modules (``LAYERS``) from here, without editing them.  Every wrapped
call is a span; spans nest, so a layer's self time is its spans' time
minus the time of the spans nested inside them.  Each op is a root
``bench.op`` span: its self time is the op's time outside every layer.

Counts are kept for every wrapped function, plus a few computed from
arguments or results (:meth:`LayerTrace._counters`).  Spans are kept in
memory, up to ``MAX_SPANS`` of them, and written out at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

#: Spans kept in memory (about two ``syscalls`` ops); counts and self
#: times cover every span.
MAX_SPANS = 50_000

#: Layer name -> modules it owns.  ``module`` wraps every class and
#: function defined in the module; ``module:Class`` one class;
#: ``module:Class.method`` one method.
LAYERS = (
    ("arch.cpu", ("repro.arch.cpu",)),
    ("arch.isa", ("repro.arch.isa",)),
    ("arch.registers", ("repro.arch.registers",)),
    ("mem.mmu", ("repro.mem.mmu",)),
    ("mem.phys", ("repro.mem.phys",)),
    ("mem.pagetable", ("repro.mem.pagetable",)),
    ("arch.pac", ("repro.arch.pac",)),
    ("qarma", ("repro.qarma.qarma64",)),
    ("trace", ("repro.trace.tracer", "repro.trace.ring")),
    ("observe.profiler", ("repro.observe.profiler", "repro.observe.symbols")),
    ("kernel.entry", ("repro.kernel.entry:EntryTracepoints",)),
    ("kernel.boot", ("repro.kernel.system:System.__init__",)),
    ("arch.assembler", ("repro.arch.assembler",)),
    ("cfi.instrument", ("repro.cfi.instrument",)),
    (
        "elfimage",
        ("repro.elfimage.image", "repro.elfimage.loader", "repro.elfimage.ptrtable"),
    ),
    ("analysis.binscan", ("repro.analysis.binscan",)),
    ("hyp", ("repro.hyp.hypervisor",)),
    ("boot", ("repro.boot.bootloader", "repro.boot.fdt")),
    ("inject", ("repro.inject.campaign",)),
    ("inject.sweep", ("repro.inject.invariants:InvariantChecker",)),
    ("kernel.fault", ("repro.kernel.fault:FaultManager",)),
)

#: Name of the root span around each op.
OP_SPAN = "bench.op"

#: Dunder methods that count as public entry points.
_DUNDERS = ("__init__", "__post_init__", "__call__")

#: The per-layer metrics, in output order, with their units.
METRICS = (
    ("arch.cpu.steps", "count"),
    ("arch.cpu.self_s", "s"),
    ("arch.cpu.fetch_ratio", "ratio"),
    ("arch.cpu.exceptions", "count"),
    ("arch.isa.executes", "count"),
    ("arch.isa.self_s", "s"),
    ("arch.registers.calls", "count"),
    ("arch.registers.self_s", "s"),
    ("arch.registers.key_writes", "count"),
    ("mem.mmu.calls", "count"),
    ("mem.mmu.self_s", "s"),
    ("mem.mmu.walk_ratio", "ratio"),
    ("mem.phys.calls", "count"),
    ("mem.phys.self_s", "s"),
    ("mem.phys.bytes", "bytes"),
    ("mem.phys.code_stores", "count"),
    ("mem.pagetable.maps", "count"),
    ("mem.pagetable.self_s", "s"),
    ("arch.pac.ops", "count"),
    ("arch.pac.self_s", "s"),
    ("arch.pac.auth_failures", "count"),
    ("qarma.encrypts", "count"),
    ("qarma.self_s", "s"),
    ("qarma.ciphers", "count"),
    ("trace.events", "count"),
    ("trace.self_s", "s"),
    ("trace.dropped", "count"),
    ("observe.profiler.self_s", "s"),
    ("kernel.entry.self_s", "s"),
    ("kernel.boots", "count"),
    ("kernel.boot.self_s", "s"),
    ("arch.assembler.self_s", "s"),
    ("cfi.instrument.self_s", "s"),
    ("elfimage.self_s", "s"),
    ("analysis.binscan.self_s", "s"),
    ("hyp.self_s", "s"),
    ("boot.self_s", "s"),
    ("inject.trials", "count"),
    ("inject.self_s", "s"),
    ("inject.sweep.self_s", "s"),
    ("kernel.fault.self_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_s", "s"),
)


def _owned_by(function, module):
    """True for a function whose code lives in ``module``'s own file."""
    code = getattr(function, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _is_public(name):
    return not name.startswith("_") or name in _DUNDERS


class LayerTrace:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.self_time = {OP_SPAN: 0.0}
        self.calls = {}
        self.bytes = 0
        self.auth_failures = 0
        self.key_writes = 0
        self.trials = 0
        self.dropped = 0
        self.spans = []
        self._stack = []
        self._next_id = [0]
        self._op = [None]
        self._restore = []
        self._new_tracers = []
        self._held_tracers = []

    # -- counters computed from arguments and results -------------------------

    def _counters(self, key_register_names):
        def phys_read(args, kwargs, result):
            self.bytes += len(result)

        def phys_write(args, kwargs, result):
            data = args[2] if len(args) > 2 else kwargs["data"]
            self.bytes += len(data)

        def auth(args, kwargs, result):
            if not result.ok:
                self.auth_failures += 1

        def write_sysreg(args, kwargs, result):
            name = args[1] if len(args) > 1 else kwargs["name"]
            if name in key_register_names:
                self.key_writes += 1

        def campaign(args, kwargs, result):
            self.trials += len(result.results)

        def new_tracer(args, kwargs, result):
            self._new_tracers.append(args[0])

        return {
            "mem.phys:PhysicalMemory.read": phys_read,
            "mem.phys:PhysicalMemory.write": phys_write,
            "arch.pac:PACEngine.auth_pac": auth,
            "arch.registers:RegisterFile.write_sysreg": write_sysreg,
            "inject:InjectionCampaign.run": campaign,
            "trace:Tracer.__init__": new_tracer,
        }

    # -- wrapping --------------------------------------------------------------

    def wrap(self, function, layer, key, counter=None):
        """A span-recording stand-in for ``function``."""
        clock = time.perf_counter
        stack = self._stack
        self_time = self.self_time
        self_time.setdefault(layer, 0.0)
        calls = self.calls
        calls.setdefault(key, 0)
        spans = self.spans
        cap = MAX_SPANS
        next_id = self._next_id
        op = self._op

        def traced(*args, **kwargs):
            calls[key] += 1
            if len(spans) < cap:
                span_id = next_id[0]
                next_id[0] += 1
            else:
                span_id = None
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id is not None and len(spans) < cap:
                    spans.append((span_id, parent, op[0], key, start, end))
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_attribute(self, owner, name, layer, module, counters):
        raw = owner.__dict__[name]
        key = f"{layer}:{owner.__qualname__}.{name}"
        counter = counters.get(key)
        if isinstance(raw, (staticmethod, classmethod)):
            if _owned_by(raw.__func__, module):
                wrapped = self.wrap(raw.__func__, layer, key, counter)
                self._patch(owner, name, type(raw)(wrapped))
        elif isinstance(raw, property):
            getter, setter = raw.fget, raw.fset
            if getter is not None and _owned_by(getter, module):
                getter = self.wrap(getter, layer, key, counter)
            if setter is not None and _owned_by(setter, module):
                setter = self.wrap(setter, layer, f"{key}.setter")
            self._patch(owner, name, property(getter, setter, raw.fdel, raw.__doc__))
        elif isinstance(raw, types.FunctionType) and _owned_by(raw, module):
            self._patch(owner, name, self.wrap(raw, layer, key, counter))

    def _wrap_class(self, cls, layer, module, counters, only=None):
        for name in list(cls.__dict__):
            if (only is None and _is_public(name)) or name == only:
                self._wrap_attribute(cls, name, layer, module, counters)

    def _wrap_function(self, module, name, layer, counters):
        """Wrap a module-level function everywhere it was imported by name."""
        original = module.__dict__[name]
        key = f"{layer}:{name}"
        wrapped = self.wrap(original, layer, key, counters.get(key))
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if (
                namespace is not None
                and (other.__name__ or "").startswith("repro")
                and namespace.get(name) is original
            ):
                self._patch(other, name, wrapped)

    def install(self):
        """Wrap every layer's public functions (undo with :meth:`uninstall`)."""
        registers = importlib.import_module("repro.arch.registers")
        counters = self._counters(frozenset(registers.KEY_REGISTER_NAMES))
        for layer, targets in LAYERS:
            for target in targets:
                module_name, _, member = target.partition(":")
                module = importlib.import_module(module_name)
                if member:
                    class_name, _, only = member.partition(".")
                    self._wrap_class(
                        module.__dict__[class_name], layer, module, counters,
                        only=only or None,
                    )
                    continue
                for name, value in list(module.__dict__.items()):
                    if not _is_public(name):
                        continue
                    if isinstance(value, type) and value.__module__ == module_name:
                        if not issubclass(value, BaseException):
                            self._wrap_class(value, layer, module, counters)
                    elif isinstance(value, types.FunctionType) and _owned_by(
                        value, module
                    ):
                        self._wrap_function(module, name, layer, counters)
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- the op loop ------------------------------------------------------------

    def reset(self):
        """Zero every count and span; tracers alive now are held to the end."""
        for layer in self.self_time:
            self.self_time[layer] = 0.0
        for key in self.calls:
            self.calls[key] = 0
        self.bytes = self.auth_failures = self.key_writes = self.trials = 0
        self.dropped = 0
        self.spans.clear()
        self._next_id[0] = 0
        self._held_tracers = [
            (tracer, tracer.dropped) for tracer in self._new_tracers
        ]
        self._new_tracers.clear()

    def traced_op(self, op):
        """Wrap a workload's ``op`` as the root span of each op."""
        wrapped = self.wrap(op, OP_SPAN, OP_SPAN)

        def run(index):
            self._op[0] = index
            return wrapped(index)

        return run

    def after_op(self, index):
        """Fold in the ring drops of tracers the op created (and dropped)."""
        for tracer in self._new_tracers:
            self.dropped += tracer.dropped
        self._new_tracers.clear()

    def finish(self):
        for tracer, dropped in self._held_tracers:
            self.dropped += tracer.dropped - dropped
        self._held_tracers = []

    # -- results ----------------------------------------------------------------

    def layer_calls(self, layer, suffix=""):
        prefix = layer + ":"
        return sum(
            count
            for key, count in self.calls.items()
            if key.startswith(prefix) and key.endswith(suffix)
        )

    def metrics(self, scale, overhead):
        """Every per-layer metric; host times are multiplied by ``scale``."""
        calls = self.calls

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        def self_s(layer):
            return self.self_time.get(layer, 0.0) * scale

        steps = calls.get("arch.cpu:CPU.step", 0)
        values = {
            "arch.cpu.steps": steps,
            "arch.cpu.fetch_ratio": ratio(calls.get("mem.mmu:MMU.fetch", 0), steps),
            "arch.cpu.exceptions": calls.get("arch.cpu:CPU.take_exception", 0),
            "arch.isa.executes": self.layer_calls("arch.isa", ".execute"),
            "arch.registers.calls": self.layer_calls("arch.registers"),
            "arch.registers.key_writes": self.key_writes,
            "mem.mmu.calls": self.layer_calls("mem.mmu"),
            "mem.mmu.walk_ratio": ratio(
                calls.get("mem.pagetable:Stage1Table.lookup", 0),
                calls.get("mem.mmu:MMU.translate", 0),
            ),
            "mem.phys.calls": self.layer_calls("mem.phys"),
            "mem.phys.bytes": self.bytes,
            "mem.phys.code_stores": calls.get(
                "mem.phys:PhysicalMemory.store_instruction", 0
            ),
            "mem.pagetable.maps": calls.get("mem.pagetable:Stage1Table.map_page", 0),
            "arch.pac.ops": sum(
                calls.get(f"arch.pac:PACEngine.{name}", 0)
                for name in ("add_pac", "auth_pac", "generic_mac", "strip")
            ),
            "arch.pac.auth_failures": self.auth_failures,
            "qarma.encrypts": calls.get("qarma:Qarma64.encrypt", 0),
            "qarma.ciphers": calls.get("qarma:Qarma64.__post_init__", 0),
            "trace.events": calls.get("trace:Tracer.emit", 0),
            "trace.dropped": self.dropped,
            "kernel.boots": calls.get("kernel.boot:System.__init__", 0),
            "inject.trials": self.trials,
            "bench.trace_overhead": overhead,
            "bench.unattributed_s": self_s(OP_SPAN),
        }
        for name, unit in METRICS:
            if name.endswith(".self_s"):
                values[name] = self_s(name[: -len(".self_s")])
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def attributed_seconds(self):
        """Raw self time summed over every span, the op spans included."""
        return sum(self.self_time.values())

    def write_spans(self, path, origin):
        """Write the kept spans as JSON lines, times relative to ``origin``."""
        with open(path, "w") as handle:
            for span_id, parent, op, key, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "name": key,
                            "start": start - origin,
                            "end": end - origin,
                        }
                    )
                    + "\n"
                )
