"""Independent reference answers for rule-shaped (direct) knowledge bases.

For a direct KB and a query that asserts every feature, the program's
answer is the median interval of ``P(pos | S)`` over the query's observed
non-empty feature-value subsets ``S``; a k-explanation is the size-k
sub-query whose own median is most extreme.  Both follow from the
training rows alone, so the benchmark recomputes them here with numpy,
without touching ``plkb``, and compares exactly.

Per query, the rows' agreement with the query becomes one bit mask per
row; a superset-sum (zeta transform) over the 2^F masks then gives, for
every subset S at once, how many rows (and positive rows) contain S.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# The program's tie rule: a midpoint of exactly 0.5 classifies negative,
# within a band of 1e-6 (LABEL_EPS in plkb.lp).
LABEL_EPS = 1e-6


class DirectOracle:
    def __init__(self, features: list[str], rows: list[dict[str, str]], labels: list[bool]):
        self.features = list(features)
        self.n = len(self.features)
        if self.n > 16:
            raise ValueError("the oracle enumerates 2^F subsets; F must be <= 16")
        self.rows = np.array([[r[f] for f in self.features] for r in rows])
        self.labels = np.array(labels, dtype=bool)
        self.bits = 1 << np.arange(self.n)
        self._order = sorted(range(self.n), key=lambda i: self.features[i])

    def _counts(self, query: dict[str, str]) -> tuple[np.ndarray, np.ndarray]:
        q = np.array([query[f] for f in self.features])
        masks = (self.rows == q) @ self.bits
        size = 1 << self.n
        total = np.bincount(masks, minlength=size).astype(np.int64)
        pos = np.bincount(masks[self.labels], minlength=size).astype(np.int64)
        for b in range(self.n):
            for arr in (total, pos):
                view = arr.reshape(-1, 2, 1 << b)
                view[:, 0, :] += view[:, 1, :]
        return total, pos

    @staticmethod
    def _median(total: np.ndarray, pos: np.ndarray, subsets: np.ndarray) -> tuple[float, float]:
        t = total[subsets]
        seen = t > 0
        if not seen.any():
            return 0.0, 1.0  # no clause applies: the maximally uncertain answer
        probs = np.sort(pos[subsets][seen] / t[seen])
        n = len(probs)
        return float(probs[(n - 1) // 2]), float(probs[n // 2])

    def classify(self, query: dict[str, str]) -> tuple[float, float, bool]:
        """(p_lower, p_upper, label) for a full query."""
        total, pos = self._counts(query)
        lo, hi = self._median(total, pos, np.arange(1, 1 << self.n))
        return lo, hi, (lo + hi) / 2.0 > 0.5 + LABEL_EPS

    def explain(self, query: dict[str, str], k: int) -> tuple[dict[str, str], float]:
        """(sub_query, score) of the size-k explanation, ties broken on the
        serialized sub-query as the program does."""
        total, pos = self._counts(query)
        lo, hi = self._median(total, pos, np.arange(1, 1 << self.n))
        positive = (lo + hi) / 2.0 > 0.5 + LABEL_EPS
        best = None
        for combo in combinations(self._order, k):
            subsets = np.array([
                sum(1 << i for i in part)
                for r in range(1, k + 1) for part in combinations(combo, r)
            ])
            slo, shi = self._median(total, pos, subsets)
            score = (slo + shi) / 2.0
            sub = {self.features[i]: query[self.features[i]] for i in combo}
            text = ",".join(f"{f}={v}" for f, v in sorted(sub.items()))
            key = (-score if positive else score, text)
            if best is None or key < best[0]:
                best = (key, sub, score)
        return best[1], best[2]
