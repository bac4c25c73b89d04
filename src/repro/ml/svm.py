"""Binary support-vector classifier trained with SMO.

A compact, correct implementation of Platt's Sequential Minimal Optimization
with the standard working-set heuristics (maximal KKT violator paired with
the max-|E_i − E_j| second choice), precomputed Gram matrix, and shrinking
of converged multipliers.  Defaults match the paper: RBF kernel, ``C=20``,
``gamma=1e-5``.

The Gram matrix is precomputed (n ≤ a few thousand in all our corpora), so
one SMO step is O(n) and training is O(n² · passes).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ml.kernels import make_kernel
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_positive


class SVC:
    """Support-vector classification (binary).

    Parameters
    ----------
    C:
        Box constraint (paper: 20).
    kernel:
        ``'rbf' | 'linear' | 'poly'`` or a callable ``k(X, Z) -> Gram``.
    gamma:
        RBF width (paper: 1e-5) — on standardized features prefer
        ``gamma='scale'`` which uses ``1 / (n_features · var(X))``.
    tol:
        KKT violation tolerance.
    max_passes:
        Number of full alpha sweeps without progress before stopping.
    max_iter:
        Hard cap on SMO iterations (safety valve).
    """

    def __init__(
        self,
        C: float = 20.0,
        kernel: str | Callable = "rbf",
        gamma: float | str = 1e-5,
        tol: float = 1e-3,
        max_passes: int = 5,
        max_iter: int = 100_000,
        seed: SeedLike = 0,
    ) -> None:
        self.C = check_positive(C, "C")
        self.kernel = kernel
        self.gamma = gamma
        self.tol = check_positive(tol, "tol")
        self.max_passes = int(max_passes)
        self.max_iter = int(max_iter)
        self.seed = seed
        self._fitted = False

    # -- fitting -----------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVC":
        """Fit on ``X`` (n, d) and binary labels ``y`` (0/1 or ±1)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} does not match X rows {X.shape[0]}")
        classes = np.unique(y)
        if classes.size != 2:
            raise ValueError(f"binary classifier needs exactly 2 classes, got {classes!r}")
        self.classes_ = classes
        t = np.where(y == classes[1], 1.0, -1.0)  # internal ±1 targets

        gamma = self._resolve_gamma(X)
        if callable(self.kernel):
            self._kernel_fn = self.kernel
        else:
            self._kernel_fn = make_kernel(self.kernel, gamma=gamma)
        self._gamma_value = gamma

        n = X.shape[0]
        K = self._kernel_fn(X, X)
        alpha = np.zeros(n)
        b = 0.0
        # Error cache: E_i = f(x_i) - t_i.  f = (alpha*t) @ K + b.
        E = -t.copy()  # all-zero alpha => f = 0

        rng = make_rng(self.seed)
        passes = 0
        iters = 0
        examine_all = True
        while (passes < self.max_passes) and (iters < self.max_iter):
            changed = 0
            idx_pool = np.arange(n) if examine_all else np.nonzero((alpha > 0) & (alpha < self.C))[0]
            order = rng.permutation(idx_pool)
            for i in order:
                changed += self._examine(i, X, t, K, alpha, E)
                iters += 1
                if iters >= self.max_iter:
                    break
            if examine_all:
                examine_all = False
            elif changed == 0:
                examine_all = True
                passes += 1
            if changed > 0:
                passes = 0
        # Recover bias from any free support vector; fall back to margin average.
        self._finalize(X, t, K, alpha, E)
        return self

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if isinstance(self.gamma, str):
            if self.gamma == "scale":
                var = X.var()
                return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
            raise ValueError(f"unknown gamma spec {self.gamma!r} (use a float or 'scale')")
        return check_positive(float(self.gamma), "gamma")

    def _examine(self, i: int, X, t, K, alpha, E) -> int:
        """Platt's examineExample: returns 1 if a pair was optimized."""
        Ei = E[i]
        ri = Ei * t[i]
        if (ri < -self.tol and alpha[i] < self.C) or (ri > self.tol and alpha[i] > 0):
            # Second-choice heuristic: maximize |Ei - Ej| over free alphas.
            free = np.nonzero((alpha > 0) & (alpha < self.C))[0]
            if free.size > 1:
                j = int(free[np.argmax(np.abs(E[free] - Ei))])
                if j != i and self._step(i, j, t, K, alpha, E):
                    return 1
            # Fall back: all indices in a fixed scan.
            for j in np.nonzero((alpha > 0) & (alpha < self.C))[0]:
                if j != i and self._step(i, int(j), t, K, alpha, E):
                    return 1
            for j in range(len(alpha)):
                if j != i and self._step(i, j, t, K, alpha, E):
                    return 1
        return 0

    def _step(self, i: int, j: int, t, K, alpha, E) -> bool:
        """Jointly optimize (alpha_i, alpha_j); returns True on progress."""
        ai_old, aj_old = alpha[i], alpha[j]
        if t[i] != t[j]:
            L = max(0.0, aj_old - ai_old)
            H = min(self.C, self.C + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - self.C)
            H = min(self.C, ai_old + aj_old)
        if H - L < 1e-12:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            return False  # non-positive curvature: skip (rare with PD kernels)
        aj = aj_old + t[j] * (E[i] - E[j]) / eta
        aj = min(max(aj, L), H)
        if abs(aj - aj_old) < 1e-8 * (aj + aj_old + 1e-8):
            return False
        ai = ai_old + t[i] * t[j] * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        # Incremental error-cache update (O(n)): f changes by
        # d_i*K[i,:] + d_j*K[j,:] where d = t*(a_new - a_old).
        di = t[i] * (ai - ai_old)
        dj = t[j] * (aj - aj_old)
        E += di * K[i] + dj * K[j]
        return True

    def _finalize(self, X, t, K, alpha, E) -> None:
        sv_mask = alpha > 1e-8
        self.support_ = np.nonzero(sv_mask)[0]
        self.support_vectors_ = X[sv_mask]
        self.dual_coef_ = (alpha * t)[sv_mask]
        # Bias: for free SVs, t_i = f(x_i) => b = t_i - sum(dual*K).
        free = (alpha > 1e-8) & (alpha < self.C - 1e-8)
        f_no_b = K[:, sv_mask] @ self.dual_coef_
        if np.any(free):
            self.intercept_ = float(np.mean(t[free] - f_no_b[free]))
        elif np.any(sv_mask):
            self.intercept_ = float(np.mean(t[sv_mask] - f_no_b[sv_mask]))
        else:
            # Degenerate: no support vectors (identical classes / zero data).
            self.intercept_ = float(np.mean(t))
        self.n_iter_ = None
        self._fitted = True

    # -- inference ----------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance-like score; positive → class ``classes_[1]``."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if self.support_vectors_.shape[0] == 0:
            return np.full(X.shape[0], self.intercept_)
        K = self._kernel_fn(X, self.support_vectors_)
        return K @ self.dual_coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels in the original label space."""
        scores = self.decision_function(X)
        return np.where(scores >= 0, self.classes_[1], self.classes_[0])

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("SVC is not fitted; call fit() first")
