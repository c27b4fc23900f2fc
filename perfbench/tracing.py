"""Spans and counts recorded around the public functions of each layer.

``Tracer.install`` replaces the layer entry points of one imported
``cliffsteer`` with wrappers, and ``Tracer.uninstall`` puts the originals
back, so untraced code runs unwrapped.  While installed, each call records
a span (name, start, end, parent) in flat in-memory arrays, and a few
wrappers also count the work they saw.  Nothing inside ``src/`` is edited;
spans are only written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

# span name -> (module, owner or None for a module function, attribute names)
ENTRY_POINTS = {
    "algebra.mv_mul": ("algebra", "Multivector", ("__mul__",)),
    "algebra.mv_add": ("algebra", "Multivector", ("__add__", "__radd__")),
    "polynomials.basis": ("polynomials", None, ("polyharmonic_basis",)),
    "polynomials.partial": ("polynomials", "CliffordPolynomial", ("partial",)),
    "polynomials.dirac_y": ("polynomials", "CliffordPolynomial", ("dirac_y",)),
    "polynomials.laplacian": ("polynomials", "CliffordPolynomial", ("laplacian",)),
    "polynomials.poly_mul": ("polynomials", "CliffordPolynomial", ("__mul__", "__rmul__")),
    "steering.construct": (
        "steering",
        None,
        (
            "construct_exp_left",
            "construct_trig_left",
            "construct_power_left",
            "construct_two_sided",
            "construct_eigen",
            "dsolve",
        ),
    ),
    "steering.op": (
        "steering",
        "SteeringExpression",
        ("partial", "lmul", "rmul", "cr_left", "cr_right", "hypercomplex_d"),
    ),
    "verify.residual": (
        "verify",
        None,
        (
            "n_monogenic_residual",
            "inframonogenic_residual",
            "lame_navier_residual",
            "alpha_beta_residual",
            "infrapoly_residual",
            "d_equation_residual",
        ),
    ),
    "appell.poly": ("appell", None, ("appell_poly",)),
    "cli.main": ("cli", None, ("main",)),
}
# classmethod decoders and encoders of every document type
CODEC_OWNERS = (
    ("algebra", "Multivector"),
    ("polynomials", "CliffordPolynomial"),
    ("steering", "SteeringSymbol"),
    ("steering", "SteeringExpression"),
    ("verify", "ResidualReport"),
)
CODEC_SPANS = ("cli.decode", "cli.encode")

COUNTS = (
    "algebra.mv_mul.blade_pairs",
    "algebra.coef_bits_max",
    "polynomials.basis.elements",
    "steering.terms_out",
    "verify.residual_terms",
    "cli.doc_bytes",
)
FILE_FLAGS = ("--seed-file", "--spec-file", "--in", "--out")
MISSING = object()  # an attribute that was inherited, not set on its owner


def blade_terms(value) -> int:
    """Blade terms of a steering expression or a polynomial, counted as one
    flat (symbol, monomial, blade) map."""
    total = 0
    for _, coef in value.items():
        total += blade_terms(coef) if hasattr(coef, "var_scope") else len(coef)
    return total


class Tracer:
    def __init__(self):
        self.names = list(ENTRY_POINTS) + list(CODEC_SPANS)
        self.saved: list[tuple] = []  # (owner, attribute, original) in install order
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("B")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.hidden = array("d")  # time of counting hooks run inside a span
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- installation ---------------------------------------------------------

    def install(self, cs) -> None:
        """Wrap every entry point of the imported package ``cs``."""
        self.uninstall()
        modules = [mod for name, mod in sys.modules.items() if name.startswith("cliffsteer")]
        after = {
            "algebra.mv_mul": self._after_mv_mul,
            "polynomials.basis": self._after_basis,
            "steering.construct": self._after_steering,
            "steering.op": self._after_steering,
            "verify.residual": self._after_residual,
            "cli.main": self._after_cli,
        }
        for span, (module, owner, attrs) in ENTRY_POINTS.items():
            mod = getattr(cs, module)
            target = getattr(mod, owner) if owner else mod
            for attr in attrs:
                original = getattr(target, attr)
                wrapped = self._wrap(original, span, after.get(span))
                self._replace(target, attr, wrapped)
                if owner is None:
                    # rebind copies imported by name into sibling modules
                    for other in modules:
                        if other is not target and getattr(other, attr, None) is original:
                            self._replace(other, attr, wrapped)
        for module, owner in CODEC_OWNERS:
            cls = getattr(getattr(cs, module), owner)
            self._replace(cls, "to_obj", self._wrap(cls.to_obj, "cli.encode"))
            if "from_obj" in cls.__dict__:
                func = cls.__dict__["from_obj"].__func__
                self._replace(cls, "from_obj", classmethod(self._wrap(func, "cli.decode")))

    def uninstall(self) -> None:
        """Put back every attribute that ``install`` replaced."""
        for target, attr, original in reversed(self.saved):
            if original is MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self.saved = []

    def _replace(self, target, attr: str, value) -> None:
        self.saved.append((target, attr, vars(target).get(attr, MISSING)))
        setattr(target, attr, value)

    def _wrap(self, fn, span: str, after=None):
        name_id = self.names.index(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.starts)
            stack = tracer.stack
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.hidden.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if after is not None:
                after(args, out)
                if stack:
                    # the hook ran inside the parent span; keep it out of
                    # the parent's self time
                    tracer.hidden[stack[-1]] += perf_counter() - end
            return out

        return wrapper

    # -- counters, updated outside the span they describe --------------------

    def _after_mv_mul(self, args, out) -> None:
        if out is NotImplemented:
            return
        a, b = args
        if isinstance(b, type(a)):
            self.counts["algebra.mv_mul.blade_pairs"] += len(a) * len(b)
        bits = self.counts["algebra.coef_bits_max"]
        for _, q in out.items():
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        self.counts["algebra.coef_bits_max"] = bits

    def _after_basis(self, args, out) -> None:
        self.counts["polynomials.basis.elements"] += len(out)

    def _after_steering(self, args, out) -> None:
        self.counts["steering.terms_out"] += blade_terms(out)

    def _after_residual(self, args, out) -> None:
        self.counts["verify.residual_terms"] += blade_terms(out.residual)

    def _after_cli(self, args, out) -> None:
        # bytes of every JSON document the command read or wrote
        argv = list(args[0])
        for flag, value in zip(argv, argv[1:]):
            if flag in FILE_FLAGS and os.path.exists(value):
                self.counts["cli.doc_bytes"] += os.path.getsize(value)

    # -- summaries --------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.name_ids[i]]
            calls[name] += 1
            self_s[name] += self.ends[i] - self.starts[i] - child[i] - self.hidden[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        with open(path, "w", encoding="ascii") as handle:
            for i in range(len(self.starts)):
                handle.write(
                    f"{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\n"
                )
