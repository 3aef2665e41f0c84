"""In-memory span tracing around the public functions of each iodcrypt module.

The tracer never reaches inside the library: it replaces module attributes
with timing wrappers for the length of a traced run and puts the originals
back afterwards.  Because modules import each other's functions by name
(``from .group import decode_element``), every ``iodcrypt`` module that
holds a reference to a wrapped function has that reference replaced too.

Operator calls (``k * P``, ``P + Q``) and the subgroup check inside
``decode_element`` go through no wrapped name, so their cost lands in the
self time of whichever wrapped function made them.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# Module -> wrapped public names.  ``Class.method`` names patch the class.
WRAPPED = {
    "group": ("scalar_mult", "point_add", "decode_element", "GroupElement.encode",
              "hash_to_scalar"),
    "bpv": ("bpv_online", "dbpv_online", "sample_subset", "bpv_offline", "dbpv_offline",
            "serialize_table", "deserialize_table"),
    "selfcert": ("reconstruct_pub", "aq_shared_static", "aq_hang_initiate",
                 "aq_hang_finalize", "parse_record", "deserialize_drone_keypair",
                 "deserialize_system_public"),
    "sign": ("sign", "verify", "VerifierContext.build", "serialize_signature_file",
             "deserialize_signature_file"),
    "encrypt": ("encrypt", "decrypt", "kdf", "serialize_ciphertext_file",
                "deserialize_ciphertext_file"),
}

WRAPPED_LABELS = tuple(f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names)

# Span record fields, kept as a list for cheap appends while tracing.
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Collects spans (name, start, end, parent span, request id) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id = 0

    def innermost(self) -> str | None:
        """Name of the span currently open at the top of the stack."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def write(self, path) -> None:
        """Write every span once, as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans}, handle, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def aggregate(spans, under: str | None = None) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total and self time in milliseconds.

    With ``under``, only spans nested inside a span of that name count.
    """
    out: dict[str, dict[str, float]] = {}
    for idx, (rec, own) in enumerate(zip(spans, self_times(spans))):
        if under is not None and not _has_ancestor(spans, idx, under):
            continue
        row = out.setdefault(rec[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (rec[END] - rec[START]) / 1e6
        row["self_ms"] += own / 1e6
    return out


class CountingRng(random.Random):
    """Seeded randomness that counts the draws subset sampling makes."""

    def __init__(self, tracer: Tracer, seed):
        super().__init__(seed)
        self.tracer = tracer
        self.subset_draws = 0

    def randrange(self, *args, **kwargs):
        if self.tracer.innermost() == "bpv.sample_subset":
            self.subset_draws += 1
        return super().randrange(*args, **kwargs)


def _iodcrypt_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "iodcrypt" or name.startswith("iodcrypt."))]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every function in WRAPPED, wherever an iodcrypt module refers to it."""
    restore = []
    try:
        for mod_name, names in WRAPPED.items():
            module = importlib.import_module(f"iodcrypt.{mod_name}")
            for name in names:
                label = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(tracer.wrap(label, raw.__func__))
                    else:
                        new = tracer.wrap(label, raw)
                    setattr(cls, attr, new)
                    restore.append((cls, attr, raw))
                    continue
                original = getattr(module, name)
                wrapped = tracer.wrap(label, original)
                for holder in _iodcrypt_modules():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
                            restore.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, value in reversed(restore):
            setattr(holder, attr, value)
