"""Out-of-program tracing: wrap each layer's public function where it is
looked up, record one span per call, restore everything afterwards.

A module that did `from .elements import decode` holds its own reference,
so patching `oamturb.elements.decode` would record nothing; each site
below is the name the calling module actually resolves at call time.
Sites that a later version of the program no longer has are skipped, and
their layers then report zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, layer).  "Class.attr" patches a class attribute.
SITES = (
    ("oamturb.cli", "run_fidelity_scan", "montecarlo.engine"),
    ("oamturb.cli", "run_rotation_scan", "montecarlo.engine"),
    ("oamturb.cli", "beam_broadening_mc", "turbulence.beam_broadening_mc"),
    ("oamturb.cli", "ring_coefficients", "analytic.ring_coefficients"),
    ("oamturb.cli", "generate_screen", "turbulence.generate_screen"),
    ("oamturb.montecarlo", "generate_screen", "turbulence.generate_screen"),
    ("oamturb.montecarlo", "decode", "elements.decode"),
    ("oamturb.montecarlo", "rotate_modal", "fields.rotate_modal"),
    ("oamturb.turbulence", "generate_screen", "turbulence.generate_screen"),
    ("oamturb.turbulence", "propagate", "fields.propagate"),
    ("oamturb.turbulence", "PhaseScreen.phase_factor", "turbulence.phase_factor"),
    ("oamturb.analytic", "coupling_coefficients", "analytic.coupling_coefficients"),
)

LAYERS = tuple(dict.fromkeys(["cli.main"] + [layer for _, _, layer in SITES]))


def site_owner(module_name: str, path: str) -> tuple[object | None, str]:
    """The object holding a site's attribute (None if it no longer
    exists), and the attribute name."""
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, name


class Tracer:
    """Span recorder.  Use as a context manager to install the wrappers;
    spans are (layer, start, end, parent index) in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _wrapped_attr(self, layer: str, attr):
        if isinstance(attr, functools.cached_property):
            new = functools.cached_property(self.wrap(layer, attr.func))
            new.attrname = attr.attrname
            return new
        return self.wrap(layer, attr)

    def __enter__(self) -> "Tracer":
        for module_name, path, layer in SITES:
            owner, name = site_owner(module_name, path)
            # read from __dict__ so descriptors come back unbound
            attr = vars(owner).get(name) if owner is not None else None
            if attr is None:
                continue
            setattr(owner, name, self._wrapped_attr(layer, attr))
            self._restore.append((owner, name, attr))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, attr = self._restore.pop()
            setattr(owner, name, attr)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy seconds, self seconds (busy minus the
        time covered by direct child spans), and for the engine the number
        of screens drawn directly inside it."""
        out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "screens": 0}
               for layer in LAYERS}
        for layer, start, end, parent in self.spans:
            dur = end - start
            rec = out[layer]
            rec["calls"] += 1
            rec["busy_s"] += dur
            rec["self_s"] += dur
            if parent is not None:
                parent_rec = out[self.spans[parent][0]]
                parent_rec["self_s"] -= dur
                if layer == "turbulence.generate_screen":
                    parent_rec["screens"] += 1
        return out
