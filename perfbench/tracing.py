"""Outside-in span tracing of dnaswap, installed from the benchmark's files.

dnaswap modules call the layer below through module globals
(``from .statevec import tensor`` binds ``protocol.tensor``), so replacing
those globals with timing wrappers sees every call without editing a source
file. Each binding gets its own wrapper around the original function, so a
call is recorded once, under the span name of the layer it enters.
"""
from __future__ import annotations

import csv
import importlib
import time
from contextlib import contextmanager

# (dnaswap module, global it calls through, span name). The op entry points
# ``cli.cmd_run`` / ``cli.cmd_verify`` form the ``cli`` span, whose self time
# is the CLI's own formatting work.
PATCHES = (
    ("cli", "cmd_run", "cli"),
    ("cli", "cmd_verify", "cli"),
    ("cli", "run_pair", "protocol.run_pair"),
    ("cli", "assemble_pair", "protocol.assemble_pair"),
    ("cli", "canonical_table", "protocol.canonical_table"),
    ("cli", "sample", "protocol.sample"),
    ("cli", "verify_against_reference", "metrics.verify_against_reference"),
    ("protocol", "run_pair", "protocol.run_pair"),
    ("protocol", "assemble_pair", "protocol.assemble_pair"),
    ("protocol", "recognize", "protocol.recognize"),
    ("protocol", "build_recognition_unitary", "protocol.build_recognition_unitary"),
    ("protocol", "swap", "protocol.swap"),
    ("protocol", "canonical_table", "protocol.canonical_table"),
    ("protocol", "sample", "protocol.sample"),
    ("protocol", "wc_initial_state", "encodings.wc_initial_state"),
    ("protocol", "bell_basis", "gates.construct"),
    ("protocol", "bell_state", "gates.construct"),
    ("protocol", "equality_entangler", "gates.construct"),
    ("protocol", "pauli", "gates.construct"),
    ("protocol", "tensor", "statevec.tensor"),
    ("protocol", "permute_qubits", "statevec.permute_qubits"),
    ("protocol", "basis_state", "statevec.basis_state"),
    ("protocol", "apply_unitary", "statevec.apply_unitary"),
    ("protocol", "measure_two_qubit", "statevec.measure_two_qubit"),
    ("metrics", "canonical_table", "protocol.canonical_table"),
    ("encodings", "basis_state", "statevec.basis_state"),
)


class Tracer:
    """Keeps spans in memory: [name, start_ns, end_ns, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding in PATCHES that exists; restore on exit.

        A binding the code no longer has is skipped, so its span reads 0 calls.
        """
        saved = []
        try:
            for module_name, attr, span in PATCHES:
                module = importlib.import_module(f"dnaswap.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self ns), self = duration minus children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, tuple[int, int]] = {}
        for (name, start, end, _, _), kids in zip(self.spans, child_ns):
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + end - start - kids)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([i, name, start, end, parent, op])
