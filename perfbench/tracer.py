"""In-memory spans around calls into the package's layers.

A span is ``[name, layer, start_ns, end_ns, parent, counts]``: ``parent`` is
the index of the enclosing span (or None) and ``counts`` holds the calls of
hot inner functions made while the span was open, its children's included.
Timestamps come from ``time.monotonic_ns``, one clock for every process on
the machine, so spans written by CLI children line up with the spans of the
benchmark driver.

Coarse public functions get a span per call.  Functions called hundreds of
thousands of times in the inner scans (rank, gcd) only bump a counter, which
keeps the tracing cost and memory small.
"""

from __future__ import annotations

import functools
import sys
import time

# layer (module of cyclic_cdc) -> public functions timed with a span
SPANNED = {
    "field_tower": ("build_tower",),
    "subspace_linalg": ("enumerate_orbit", "orbit_size"),
    "sidon_constructions": ("make_subspace", "is_sidon"),
    "orbit_codes": ("code_from_json", "build_union", "verify_code",
                    "compare_sizes", "johnson_bound"),
    "linearized_poly": ("poly_family_from_json", "kernel_subspace",
                        "check_union_distance_criteria",
                        "check_union_distance_criteria_gf2",
                        "poly_code_distance"),
    "channel_sim": ("materialize_codebook", "run_trials", "transmit", "md_decode"),
}

# layer -> hot public functions whose calls are counted, not timed
COUNTED = {
    "subspace_linalg": ("rank_rows",),
    "linearized_poly": ("field_matrix_rank", "dense_gcd"),
}

LAYERS = ("cli",) + tuple(SPANNED)


class Tracer:
    """Spans of one process.  ``open``/``close`` record spans by hand;
    ``install`` wraps the package's functions so their calls record
    themselves."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]
        self._counters: dict[str, list[int]] = {}

    def open(self, name: str, layer: str) -> list:
        counts = {key: cell[0] for key, cell in self._counters.items()}
        span = [name, layer, 0, 0, self._stack[-1], counts]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.monotonic_ns()
        return span

    def close(self, span: list) -> None:
        span[3] = time.monotonic_ns()
        self._stack.pop()
        counts = span[5]
        for key, cell in self._counters.items():
            n = cell[0] - counts.get(key, 0)
            if n:
                counts[key] = n
            else:
                counts.pop(key, None)

    def _spanned(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def _counted(self, fn, name: str):
        cell = self._counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Replace each listed function by its wrapper in every loaded
        cyclic_cdc module that refers to it, so calls through names
        imported with ``from ... import`` are traced too."""
        import cyclic_cdc.cli  # noqa: F401  (loads every layer)

        replacements = {}
        for layer, names in SPANNED.items():
            mod = sys.modules[f"cyclic_cdc.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                replacements[id(fn)] = self._spanned(fn, f"{layer}.{name}", layer)
        for layer, names in COUNTED.items():
            mod = sys.modules[f"cyclic_cdc.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                replacements[id(fn)] = self._counted(fn, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "cyclic_cdc" and not modname.startswith("cyclic_cdc."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)


def merge(spans: list[list], child: list[list], parent: int) -> None:
    """Append a child process's spans under ``parent``, re-indexing their
    parent links; the parent's counts take in those of its new children."""
    base = len(spans)
    totals = spans[parent][5]
    for name, layer, start, end, up, counts in child:
        if up is None:
            for key, n in counts.items():
                totals[key] = totals.get(key, 0) + n
        spans.append([name, layer, start, end, parent if up is None else base + up, counts])


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover, in ns."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, up, _ in spans:
        if up is not None:
            own[up] -= end - start
    return own


def self_counts(spans: list[list]) -> list[dict[str, int]]:
    """Each span's counted calls minus those made inside its child spans."""
    own = [dict(counts) for *_, counts in spans]
    for *_, up, counts in spans:
        if up is not None:
            for key, n in counts.items():
                own[up][key] -= n
    return own
