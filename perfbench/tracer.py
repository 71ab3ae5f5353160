"""Outside-in tracer: wraps the package's public functions from outside.

Each function is replaced under the name its caller looks it up by (for
example ``annealbound.dynamics.apply_hamiltonian``, which is the module global
the propagator calls, not ``annealbound.ising.apply_hamiltonian``). Nothing
under ``src/`` changes. Spans are aggregated in memory per (function, parent)
as call count, total time and self time, because one run makes about a
million calls; optional observers add work counters read from arguments and
results. Leaving the ``with`` block restores every original.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

ROOT = "<root>"


def _bytes_per_apply(tracer, args, result):
    # Computed from array sizes, not measured: psi is read once for the
    # diagonal and once per flipped site, H psi written once, and the energies
    # plus one flip index per site and element are read once.
    diag, psi = args[0], args[2]
    n = diag.n_spins
    tracer.counters["ising.apply_hamiltonian.bytes_computed"] += (
        (n + 2) * psi.nbytes + diag.energies.nbytes + n * psi.size * 8
    )


def _distinct_diagonalize(tracer, args, result):
    diag, gamma_value = args[0], args[1]
    tracer.diagonalized.add((hash(diag.energies.tobytes()), float(gamma_value)))


def _evolve_steps(tracer, args, result):
    tracer.counters["dynamics.steps"] += result.n_steps


def _gap_curve_evaluations(tracer, args, result):
    tracer.counters["spectrum.build_gap_curve.evaluations"] += result.n_evaluations


def _quadrature_work(tracer, args, result):
    tracer.counters["quadrature.adaptive_integrate.evaluations"] += result.n_evaluations
    tracer.counters["quadrature.adaptive_integrate.panels"] += result.n_panels


# (module, attribute path, span name, observer). One span name can be bound
# under several import sites; all of them are wrapped.
TARGETS = (
    ("annealbound.dynamics", "apply_hamiltonian", "ising.apply_hamiltonian", _bytes_per_apply),
    ("annealbound.spectrum", "apply_hamiltonian", "ising.apply_hamiltonian", _bytes_per_apply),
    ("annealbound.schedule", "Schedule.gamma", "schedule.gamma", None),
    ("annealbound.experiment", "certify", "schedule.certify", None),
    ("annealbound.bound", "certify", "schedule.certify", None),
    ("annealbound.dynamics", "diagonalize", "spectrum.diagonalize", _distinct_diagonalize),
    ("annealbound.spectrum", "diagonalize", "spectrum.diagonalize", _distinct_diagonalize),
    ("annealbound.experiment", "build_gap_curve", "spectrum.build_gap_curve", _gap_curve_evaluations),
    ("annealbound.bound", "build_gap_curve", "spectrum.build_gap_curve", _gap_curve_evaluations),
    ("annealbound.experiment", "gap_profile", "spectrum.gap_profile", None),
    ("annealbound.bound", "instance_gap_constant", "spectrum.instance_gap_constant", None),
    ("annealbound.experiment", "evolve", "dynamics.evolve", _evolve_steps),
    ("annealbound.bound", "adaptive_integrate", "quadrature.adaptive_integrate", _quadrature_work),
    ("annealbound.experiment", "evaluate_bound", "bound.evaluate_bound", None),
    ("annealbound.experiment", "compare", "bound.compare", None),
    ("annealbound.experiment", "run_experiment", "experiment.run_experiment", None),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Context manager that wraps TARGETS and aggregates their spans."""

    def __init__(self):
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.counters: defaultdict = defaultdict(int)
        # (hash of the cost diagonal, Gamma) of every diagonalize call
        self.diagonalized: set[tuple[int, float]] = set()
        self._stack = [[ROOT, 0.0]]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, observer):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if observer is not None:
                observer(self, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for module, path, name, observer in TARGETS:
                owner, attr = _owner(module, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, observer))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total s, self s) of one span name summed over parents."""
        calls, total, self_s = 0, 0.0, 0.0
        for (span, _), (c, t, s) in self.spans.items():
            if span == name:
                calls, total, self_s = calls + c, total + t, self_s + s
        return calls, total, self_s

    def calls_under(self, name: str, parent: str) -> int:
        rec = self.spans.get((name, parent))
        return 0 if rec is None else rec[0]

    def table(self) -> list[dict]:
        return [
            {"span": span, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (span, parent), (c, t, s) in sorted(self.spans.items())
        ]
