"""Shared-work and wasted-work counters, computed from outside the package.

Each counter is a hook on one traced function: it sees the arguments and
the result of a call and derives the count itself, calling only unwrapped
originals, so the package needs no instrumentation.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Dict, Set


class Counters:
    def __init__(self, rank_one_catalog: Callable) -> None:
        self._catalog = rank_one_catalog  # the unwrapped original
        self.tuples_tried = 0
        self.census_returned = 0
        self.brute_candidates = 0
        self.brute_valid = 0
        self.hasse_pairs = 0
        self.block_phi_calls = 0
        self.block_phi_seen: Set[tuple] = set()
        self.threshold_calls = 0
        self.threshold_seen: Set[object] = set()
        self.certificates = 0
        self.chi_max_bits = 0

    def hooks(self) -> Dict[str, Callable[[tuple, dict, object], None]]:
        return {
            "census.enumerate_parabolics": self._enumerate,
            "census.brute_force_enumerate": self._brute,
            "census.hasse_diagram": self._hasse,
            "phi.block_phi": self._block_phi,
            "geometry.incidence_threshold": self._threshold,
            "geometry.not_fano_certificate": self._certificate,
            "geometry.anticanonical_character": self._character,
        }

    def _nodes(self, q):
        return sorted(set(range(1, q.system.rank + 1)) - set(q.levi))

    def _enumerate(self, args, kwargs, result) -> None:
        (q,) = args
        rs = q.system
        self.tuples_tried += prod(
            len(self._catalog(rs, q.p, a, q.max_height)) for a in self._nodes(q)
        )
        self.census_returned += len(result)

    def _brute(self, args, kwargs, result) -> None:
        (q,) = args
        levi = set(q.levi)
        if self._nodes(q):
            domain = [g for g in q.system.positive_roots if not g.support() <= levi]
            self.brute_candidates += (q.max_height + 1) ** len(domain)
        else:
            self.brute_candidates += 1
        self.brute_valid += len(result)

    def _hasse(self, args, kwargs, result) -> None:
        n = len(result.schemes)
        self.hasse_pairs += n * (n - 1)

    def _block_phi(self, args, kwargs, result) -> None:
        rs, p, block = args
        self.block_phi_calls += 1
        self.block_phi_seen.add((rs.rtype, p, block))

    def _threshold(self, args, kwargs, result) -> None:
        (rs,) = args
        self.threshold_calls += 1
        self.threshold_seen.add(rs.rtype)

    def _certificate(self, args, kwargs, result) -> None:
        if result is not None:
            self.certificates += 1

    def _character(self, args, kwargs, result) -> None:
        bits = max((abs(c).bit_length() for c in result.coeffs), default=0)
        if bits > self.chi_max_bits:
            self.chi_max_bits = bits

    def metrics(self, calls: Dict[str, int]) -> Dict[str, float]:
        """Counter metrics; ``calls`` maps span names to call counts."""

        def ratio(num, den):
            return num / den if den else 0.0

        def repeats(n, distinct):
            return ratio(n - distinct, n)

        return {
            "census.tuples_tried": self.tuples_tried,
            "census.distinct_ratio": ratio(self.census_returned, self.tuples_tried),
            "census.brute.candidates": self.brute_candidates,
            "census.brute.valid_ratio": ratio(self.brute_valid, self.brute_candidates),
            "census.hasse.pairs": self.hasse_pairs,
            "phi.block_phi.repeat_ratio": repeats(
                self.block_phi_calls, len(self.block_phi_seen)),
            "geometry.incidence_threshold.repeat_ratio": repeats(
                self.threshold_calls, len(self.threshold_seen)),
            "geometry.certificate_ratio": ratio(
                self.certificates, calls.get("geometry.not_fano_certificate", 0)),
            "geometry.chi_max_bits": self.chi_max_bits,
        }
