"""Timing wrappers around qtopo's public functions, installed from outside.

The traced run patches each target function in every qtopo module that
imported it (so `invariants.signature` is timed as well as
`linkalg.signature`), and classmethods through their class. Each call
becomes a span (group, start, end, parent, attrs) kept in memory. A
target that a later refactor removes is skipped, so its metrics go
missing instead of the run failing. `Tracer.uninstall` puts every
original object back.

The wrappers resolve nothing at import time; this module imports only the
standard library.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _mgs_attrs(args, kwargs, result):
    # multivariate_gauss_sum(link, k, phase_scale, offset_range, guard)
    link, k, scale = args[0], args[1], args[2]
    rng = args[3] if len(args) > 3 else kwargs.get("offset_range")
    if rng is None:
        lo, hi = 0, k - 1
    else:
        lo, hi = rng.bounds(k)
    m = len(link.J)
    attrs = {"terms": (hi - lo + 1) ** m}
    # the seed's int64 bound for its chunked path; inputs beyond it are the
    # "large-entry" share, whichever code path a later version takes for them
    max_j = max((abs(x) for row in link.J for x in row), default=0)
    if m * m * max_j * (scale.denominator - 1) ** 2 * abs(scale.numerator) >= 2**62:
        attrs["large_entry"] = 1
    return attrs


def _segment_pairs(args, kwargs, result):
    return {"segment_pairs": len(args[0]) * len(args[1]),
            "max_residual": abs(result - round(result))}


def _check_pairs(args, kwargs, result):
    na, nb = len(args[0]), len(args[1])
    # embedded checks skip adjacent segment pairs; the disjointness check takes all
    return {"check_pairs": na * (na - 3) // 2 + nb * (nb - 3) // 2 + na * nb}


def _amplitudes_state(args, kwargs, result):
    return {"amplitudes": len(result.amps)}


def _amplitudes_prepare(args, kwargs, result):
    k = args[0]
    return {"amplitudes": k * (k - 1)}


def _terms_k(args, kwargs, result):
    return {"terms": args[0]}


# (module, attribute path, span group, attrs(args, kwargs, result) or None)
TARGETS = [
    ("qtopo.invariants", "multivariate_gauss_sum", "invariants.multivariate_gauss_sum", _mgs_attrs),
    ("qtopo.invariants", "tau_abelian", "invariants.tau_abelian", None),
    ("qtopo.invariants", "tau_su2_k3", "invariants.tau_su2_k3", None),
    ("qtopo.invariants", "tau_dw", "invariants.tau_dw", None),
    ("qtopo.invariants", "check_kirby_invariance", "invariants.check_kirby_invariance", None),
    ("qtopo.numtheory", "gauss_sum_brute", "numtheory.gauss_sum_brute", _terms_k),
    ("qtopo.numtheory", "discrete_log", "numtheory.discrete_log", None),
    ("qtopo.numtheory", "Character.legendre", "numtheory.Character.legendre", None),
    ("qtopo.linkalg", "signature", "linkalg.signature", None),
    ("qtopo.linkalg", "diagonalize_mod_k", "linkalg.diagonalize_mod_k", None),
    ("qtopo.linkalg", "FramedLinkMatrix.from_json", "linkalg.parse", None),
    ("qtopo.linkalg", "FramedLinkMatrix.from_json_dict", "linkalg.parse", None),
    ("qtopo.linkalg", "blow_up", "linkalg.moves", None),
    ("qtopo.linkalg", "blow_down", "linkalg.moves", None),
    ("qtopo.linkalg", "handle_slide", "linkalg.moves", None),
    ("qtopo.linkgeom", "linking_number", "linkgeom.linking_number", _check_pairs),
    ("qtopo.linkgeom", "linking_matrix", "linkgeom.linking_matrix", None),
    ("qtopo.linkgeom", "self_linking", "linkgeom.self_linking", None),
    ("qtopo.linkgeom", "PolyLink.from_json", "linkgeom.parse", None),
    ("qtopo.linkgeom", "PolyLink.from_json_dict", "linkgeom.parse", None),
    ("qtopo.linkgeom", "gauss_integral", "linkgeom.gauss_integral", _segment_pairs),
    ("qtopo.qsim", "prepare_legendre_state", "qsim.prepare_legendre_state", _amplitudes_prepare),
    ("qtopo.qsim", "gauss_phase_encode", "qsim.gauss_phase_encode", None),
    ("qtopo.qsim", "phase_estimate", "qsim.phase_estimate", None),
    ("qtopo.qsim", "apply_unitary", "qsim.apply_unitary", _amplitudes_state),
    ("qtopo.qsim", "qft_matrix", "qsim.qft_matrix", None),
]


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    spans[i] = [group, start, end, parent index or -1, attrs]. Single
    threaded: the open-span stack is the call stack.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()  # span groups with at least one patched target

    # -- recording ---------------------------------------------------------

    def open(self, group: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([group, time.perf_counter(), 0.0, parent, {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, group: str, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(group)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "GuardExceeded":
                    tracer.spans[idx][4]["guard_exceeded"] = 1
                raise
            finally:
                tracer.close(idx)
            if attrs_fn is not None:
                tracer.spans[idx][4].update(attrs_fn(args, kwargs, result))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target that exists; modules must already be imported."""
        loaded = [mod for name, mod in list(sys.modules.items()) if name == "qtopo" or name.startswith("qtopo.")]
        for modname, path, group, attrs_fn in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if not isinstance(raw, classmethod):
                    continue
                inner = self._wrap(raw.__func__, group, attrs_fn)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, classmethod(inner))
                self.installed.add(group)
                continue
            original = getattr(module, path, None)
            if not callable(original):
                continue
            wrapped = self._wrap(original, group, attrs_fn)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
                        self.installed.add(group)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-group totals: calls, self_s and summed attrs (max_* attrs are maxima).

    A span nested directly in a span of its own group (from_json calling
    from_json_dict) adds self time but not a call. evaluations counts the
    invariant spans whose parent is a check_kirby_invariance span.
    """
    child_time = [0.0] * len(spans)
    for group, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (group, start, end, parent, attrs) in enumerate(spans):
        g = out.setdefault(group, {"calls": 0, "self_s": 0.0})
        parent_group = spans[parent][0] if parent >= 0 else None
        if parent_group != group:
            g["calls"] += 1
        g["self_s"] += (end - start) - child_time[i]
        for key, value in attrs.items():
            if key.startswith("max_"):
                g[key] = max(g.get(key, 0.0), value)
            elif key != "large_entry":
                g[key] = g.get(key, 0) + value
        if attrs.get("large_entry"):
            sub = out.setdefault(group + ".large_entry", {"calls": 0, "self_s": 0.0})
            sub["calls"] += 1
            sub["self_s"] += (end - start) - child_time[i]
        if parent_group == "invariants.check_kirby_invariance" and group.startswith("invariants.tau_"):
            chk = out.setdefault(parent_group, {"calls": 0, "self_s": 0.0})
            chk["evaluations"] = chk.get("evaluations", 0) + 1
    return out
