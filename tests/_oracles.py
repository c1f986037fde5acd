"""Independent brute-force oracles for the acceptance suite.

Everything in this file is deliberately written against plain numpy, with no
imports from the package under test.  The acceptance tests freeze the numbers
these oracles produce; rerunning ``python tests/_oracles.py`` reprints them.
"""

import itertools

import numpy as np

BAND_EDGES = (0.0, 1.0, 5.0, 10.0, 20.0, 40.0)


# ---------------------------------------------------------------------------
# membership oracles (LP-free)
# ---------------------------------------------------------------------------


def convex_min_distance(points, p, iters=600):
    """Two-sided bounds on the distance from p to the convex hull of points.

    Returns (upper, lower, weights).  The upper bound is the best distance
    achieved by any feasible weight vector among: accelerated projected
    gradient (FISTA) on the convex objective |w @ points - p|^2 over the
    simplex, a Lawson-Hanson NNLS solve of the sum-augmented system, and an
    equality-constrained least-squares polish on the active support.  The
    lower bound comes from the Frank-Wolfe gap at the FISTA iterate, valid
    for any feasible point of a convex problem.
    """
    points = np.asarray(points, dtype=float)
    p = np.asarray(p, dtype=float)
    m = points.shape[0]
    if m == 1:
        d = float(np.linalg.norm(points[0] - p))
        return d, d, np.array([1.0])
    problem = _SimplexLeastSquares(points, p)
    w = problem.fista(iters)
    candidates = [w]
    w_nnls = _nnls_weights(points, p)
    if w_nnls is not None:
        candidates.append(w_nnls)
    for cand in list(candidates):
        polished = _polish(points, p, cand)
        if polished is not None:
            candidates.append(polished)
    best_w = min(candidates, key=problem.dist)
    upper = problem.dist(best_w)
    lower = min(problem.lower(w), upper)
    return upper, lower, best_w


class _SimplexLeastSquares:
    """min |w @ points - p| over the probability simplex."""

    def __init__(self, points, p):
        self.points, self.p = points, p
        self.gram = points @ points.T
        self.target = points @ p
        self.step = 1.0 / max(np.linalg.eigvalsh(self.gram)[-1], 1e-12)

    def dist(self, w):
        return float(np.linalg.norm(w @ self.points - self.p))

    def fista(self, iters, stop=None, every=10):
        """FISTA with fixed step from the barycentre: the iterate after
        ``iters`` steps, or the first one, checked every ``every`` steps,
        for which ``stop(w)`` holds."""
        m = self.gram.shape[0]
        w = np.full(m, 1.0 / m)
        z = w.copy()
        t_acc = 1.0
        for k in range(1, iters + 1):
            grad = self.gram @ z - self.target
            w_next = _project_simplex(z - self.step * grad)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
            z = w_next + ((t_acc - 1.0) / t_next) * (w_next - w)
            w, t_acc = w_next, t_next
            if stop is not None and k % every == 0 and stop(w):
                break
        return w

    def lower(self, w):
        """Frank-Wolfe gap lower bound on the distance, at feasible w."""
        grad = self.gram @ w - self.target
        gap = float(w @ grad - np.min(grad))
        f_val = 0.5 * self.dist(w) ** 2
        return float(np.sqrt(max(0.0, 2.0 * (f_val - max(gap, 0.0)))))


def _nnls_weights(points, p):
    """NNLS on the sum-augmented system (cf. nearest-point-by-nnls
    folklore), normalised onto the simplex, or None."""
    from scipy.optimize import nnls

    m = points.shape[0]
    scale = max(1.0, float(np.linalg.norm(p)))
    a = np.vstack([points.T, scale * np.ones((1, m))])
    b = np.concatenate([p, [scale]])
    w_nnls, _ = nnls(a, b)
    total = w_nnls.sum()
    return w_nnls / total if total > 0 else None


def _polish(points, p, cand):
    """Equality-constrained least squares on the approximate support of
    ``cand``, as simplex weights, or None when it leaves the simplex."""
    support = np.nonzero(cand > 1e-9)[0]
    if not support.size:
        return None
    sub = points[support]
    k = support.size
    # parametrize weights summing to 1: a = a0 + N z
    a0 = np.full(k, 1.0 / k)
    if k > 1:
        nmat = np.zeros((k, k - 1))
        nmat[:-1, :] = np.eye(k - 1)
        nmat[-1, :] = -1.0
        design = nmat.T @ sub
        rhs = p - a0 @ sub
        zsol, *_ = np.linalg.lstsq(design.T, rhs, rcond=None)
        a_full = a0 + nmat @ zsol
    else:
        a_full = a0
    if a_full.min() < -1e-12:
        return None
    full = np.zeros(points.shape[0])
    full[support] = np.clip(a_full, 0.0, None)
    s = full.sum()
    return full / s if s > 0 else None


def _project_simplex(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (cumsum - 1))[0][-1]
    theta = (cumsum[rho] - 1) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def convex_grid_verdict(points, p, step=1e-3, tol=1e-9):
    """Literal weight-grid search over the simplex (small point sets only)."""
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    ticks = int(round(1.0 / step))
    if m == 2:
        w0 = np.arange(ticks + 1) / ticks
        mix = np.outer(w0, points[0]) + np.outer(1 - w0, points[1])
        d = np.min(np.linalg.norm(mix - p, axis=1))
        return d <= tol or np.isclose(d, 0.0, atol=step), float(d)
    if m == 3:
        best = np.inf
        w0 = np.arange(ticks + 1) / ticks
        for a in w0:
            b = np.arange(int(round((1.0 - a) * ticks)) + 1) / ticks
            c = 1.0 - a - b
            mix = a * points[0] + b[:, None] * points[1] + c[:, None] * points[2]
            best = min(best, float(np.min(np.linalg.norm(mix - p, axis=1))))
        return best <= tol, best
    raise ValueError("grid oracle only tractable for <= 3 points")


def oracle_regime(points, p, point_tol=1e-9, hull_tol=1e-9, subspace_tol=1e-8, margin=1e-6):
    """Independent regime verdict, or None when within the oracle margin.

    Inside-hull verdicts use the upper bound (a feasible witness), outside
    verdicts the Frank-Wolfe lower bound; queries whose statistics fall
    within ``margin`` of a decision threshold are declared ambiguous.
    """
    points = np.asarray(points, dtype=float)
    p = np.asarray(p, dtype=float)
    dist_pt = float(np.min(np.linalg.norm(points - p, axis=1)))
    if point_tol < dist_pt <= point_tol + margin:
        return None
    if dist_pt <= point_tol:
        return "autopolation"
    if points.shape[0] == 1:
        upper, lower, _ = convex_min_distance(points, p)
    else:
        # convex_min_distance's verdict, by the same thresholds, with two
        # early exits: a cheap candidate within hull_tol settles inside, and
        # FISTA stops once its Frank-Wolfe bound clears hull_tol + margin
        problem = _SimplexLeastSquares(points, p)
        candidates = []
        w_nnls = _nnls_weights(points, p)
        if w_nnls is not None:
            candidates.append(w_nnls)
            polished = _polish(points, p, w_nnls)
            if polished is not None:
                candidates.append(polished)
        if any(problem.dist(c) <= hull_tol for c in candidates):
            return "interpolation"
        w = problem.fista(600, stop=lambda w: problem.lower(w) > hull_tol + margin)
        polished = _polish(points, p, w)
        candidates += [w] if polished is None else [w, polished]
        upper = min(problem.dist(c) for c in candidates)
        lower = min(problem.lower(w), upper)
    if upper <= hull_tol:
        return "interpolation"
    if lower <= hull_tol + margin:
        return None  # cannot certify the point is clearly outside the hull
    d_affine = affine_min_distance(points, p)
    if subspace_tol < d_affine <= subspace_tol + margin:
        return None
    return "extrapolation" if d_affine <= subspace_tol else "hyperpolation"


def reference_classify(locations, queries, point_tol=1e-9, hull_tol=1e-9, subspace_tol=1e-8):
    """(tag, weights, residual) for each query: the LP classifier that runs
    the LP for every non-sample query except those whose residual off the
    affine hull exceeds ``2 (R + hull_tol)``, R the largest sample's.  A
    plain numpy/scipy copy of the package's hull fit, projection and LP,
    kept as the reference that the LP-skipping classifier must match byte
    for byte."""
    from scipy.optimize import linprog

    locations = np.asarray(locations, dtype=float)
    m, n = locations.shape
    base = locations.mean(axis=0)
    _, svals, vt = np.linalg.svd(locations - base, full_matrices=False)
    if svals.size and svals[0] > 0:
        keep = svals > subspace_tol * svals[0]
    else:
        keep = np.zeros(svals.shape, dtype=bool)
    basis = vt[keep]
    for i, row in enumerate(basis):
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            basis[i] = -row

    def in_hull(q):
        c = np.concatenate([np.zeros(m), np.ones(2 * n)])
        a_eq = np.zeros((n + 1, m + 2 * n))
        a_eq[:n, :m] = locations.T
        a_eq[:n, m : m + n] = -np.eye(n)
        a_eq[:n, m + n :] = np.eye(n)
        a_eq[n, :m] = 1.0
        b_eq = np.concatenate([q, [1.0]])
        bounds = [(0.0, 1.0)] * m + [(0.0, None)] * (2 * n)
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if not res.success:
            return None
        weights = np.clip(res.x[:m], 0.0, None)
        total = weights.sum()
        if total > 0:
            weights = weights / total
        if np.linalg.norm(weights @ locations - q) <= hull_tol:
            return weights
        return None

    rel = locations - base
    lp_bound = 2.0 * (np.linalg.norm(rel - rel @ basis.T @ basis, axis=1).max() + hull_tol)
    out = []
    for q in np.asarray(queries, dtype=float):
        if np.min(np.linalg.norm(locations - q, axis=1)) <= point_tol:
            out.append(("autopolation", None, None))
            continue
        rq = q - base
        onto = rq @ basis.T @ basis if basis.shape[0] else np.zeros_like(rq)
        residual = float(np.linalg.norm(rq - onto))
        off_hull = residual > subspace_tol
        weights = None
        if not off_hull or residual <= lp_bound:
            weights = in_hull(q)
        if weights is not None:
            out.append(("interpolation", weights, None))
        elif off_hull:
            out.append(("hyperpolation", None, residual))
        else:
            out.append(("extrapolation", None, None))
    return out


def affine_min_distance(points, p):
    """Distance from p to the affine hull via least squares (Gram-Schmidt free)."""
    points = np.asarray(points, dtype=float)
    p = np.asarray(p, dtype=float)
    base = points[0]
    directions = points[1:] - base
    if directions.size == 0:
        return float(np.linalg.norm(p - base))
    coeffs, *_ = np.linalg.lstsq(directions.T, p - base, rcond=None)
    return float(np.linalg.norm(directions.T @ coeffs - (p - base)))


def gram_schmidt_distance(base, directions, p):
    """Distance to an affine subspace from an explicitly orthonormalized basis."""
    basis = []
    for d in np.atleast_2d(directions):
        v = d.astype(float).copy()
        for b in basis:
            v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            basis.append(v / norm)
    rel = np.asarray(p, dtype=float) - np.asarray(base, dtype=float)
    for b in basis:
        rel = rel - (rel @ b) * b
    return float(np.linalg.norm(rel))


def band_index(dist, edges=BAND_EDGES):
    """Index of the half-open band [edges[i], edges[i+1]) containing dist.

    Distances at or beyond the last edge fall in the final band.
    """
    idx = len(edges) - 1
    for i in range(len(edges) - 1):
        if edges[i] <= dist < edges[i + 1]:
            idx = i
            break
    return idx


def piecewise_linear(xq, xs, ys):
    """1D piecewise-linear interpolant with linear extrapolation.

    Extrapolation uses the two outermost points on each side.
    """
    xq = np.asarray(xq, dtype=float)
    out = np.interp(xq, xs, ys)
    lo = xq < xs[0]
    hi = xq > xs[-1]
    if np.any(lo):
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        out = np.where(lo, ys[0] + slope * (xq - xs[0]), out)
    if np.any(hi):
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(hi, ys[-1] + slope * (xq - xs[-1]), out)
    return out


def case_arrays(name):
    """Sample locations/values, query grid and ground truth for a built-in case."""
    if name == "ripple":
        xs = np.arange(-40.0, 41.0)
        slice_y = -20.0
        truth = lambda x, y: np.cos(np.sqrt(x**2 + y**2))
        grid = np.arange(-40.0, 41.0)
    elif name == "cone":
        xs = np.arange(-20.0, 21.0)
        slice_y = 1.0
        truth = lambda x, y: np.sqrt(x**2 + y**2)
        grid = np.arange(-20.0, 21.0)
    else:
        raise ValueError(name)
    values = truth(xs, np.full_like(xs, slice_y))
    qx, qy = np.meshgrid(grid, grid, indexing="ij")
    qx = qx.ravel()
    qy = qy.ravel()
    return xs, slice_y, values, qx, qy, truth(qx, qy)


def oracle_band_errors(name, method):
    """Per-band (rmse, max_abs, count) of a baseline method on a built-in case.

    method 'extrusion' extrudes the piecewise-linear slice interpolant along
    the slice normal; 'nn_ambient' predicts the value of the nearest sample
    location in the ambient plane (ties broken by lowest sample index).
    """
    xs, slice_y, values, qx, qy, truth = case_arrays(name)
    if method == "extrusion":
        pred = piecewise_linear(qx, xs, values)
    elif method == "nn_ambient":
        d2 = (qx[:, None] - xs[None, :]) ** 2 + (qy[:, None] - slice_y) ** 2
        pred = values[np.argmin(d2, axis=1)]
    else:
        raise ValueError(method)
    dist = np.abs(qy - slice_y)
    err = pred - truth
    bands = []
    for i in range(len(BAND_EDGES)):
        lo = BAND_EDGES[i]
        hi = BAND_EDGES[i + 1] if i + 1 < len(BAND_EDGES) else np.inf
        mask = (dist >= lo) & (dist < hi)
        n = int(mask.sum())
        if n == 0:
            bands.append((0.0, 0.0, 0))
            continue
        rmse = float(np.sqrt(np.mean(err[mask] ** 2)))
        bands.append((rmse, float(np.max(np.abs(err[mask]))), n))
    return bands


# ---------------------------------------------------------------------------
# expression oracle
# ---------------------------------------------------------------------------

# the numpy operation of each node; pow2 is a*a and div the ufunc, so that
# two float constants divide by zero to inf/nan as arrays do
_EXPR_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": np.true_divide,
    "pow2": lambda a: a * a,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
}


def eval_expr(e, env, slot_values=()):
    """Recursive walk of an expression tuple: each node's operation applied
    to its children's values, left child first, slots filled depth-first."""
    slots = iter(slot_values)

    def rec(node):
        op = node[0]
        if op == "var":
            return env[node[1]]
        if op == "const":
            return node[1]
        if op == "slot":
            return next(slots)
        args = [rec(child) for child in node[1:]]
        return _EXPR_OPS[op](*args)

    with np.errstate(all="ignore"):
        return rec(e)


# ---------------------------------------------------------------------------
# constant-fitting oracle: scipy's minimizers, one start at a time
# ---------------------------------------------------------------------------


def profiled_sse(u, y, has_mul, has_add):
    """The least-squares profiled (c_a, c_b) in ``u * c_a + c_b`` given core
    values ``u`` of shape (L, m), one row each: ``(sse, c_a, c_b)``, the SSE
    an (L,) array and the constants (L, 1) columns."""
    y = y[None, :]
    bad = ~np.isfinite(u).all(axis=1)
    ones, zeros = np.ones((u.shape[0], 1)), np.zeros((u.shape[0], 1))
    if has_mul and has_add:
        um = u.mean(axis=1, keepdims=True)
        ym = y.mean(axis=1, keepdims=True)
        uc = u - um
        varu = (uc * uc).sum(axis=1, keepdims=True)
        cov = (uc * (y - ym)).sum(axis=1, keepdims=True)
        ca = np.where(varu > 0, cov / np.where(varu > 0, varu, 1.0), 0.0)
        cb = ym - ca * um
    elif has_mul:
        uu = (u * u).sum(axis=1, keepdims=True)
        uy = (u * y).sum(axis=1, keepdims=True)
        ca = np.where(uu > 0, uy / np.where(uu > 0, uu, 1.0), 0.0)
        cb = zeros
    elif has_add:
        ca, cb = ones, (y - u).mean(axis=1, keepdims=True)
    else:
        ca, cb = ones, zeros
    resid = u * ca + cb - y if (has_mul or has_add) else u - y
    sse = (resid * resid).sum(axis=1)
    return np.where(bad | ~np.isfinite(sse), np.inf, sse), ca, cb


def profiled_sse_1d(u, y, has_mul, has_add):
    """``profiled_sse`` of one (m,) core vector, as a float."""
    if has_mul and has_add:
        um = u.mean()
        ym = y.mean()
        uc = u - um
        varu = (uc * uc).sum()
        cov = (uc * (y - ym)).sum()
        ca = cov / varu if varu > 0 else 0.0
        resid = u * ca + (ym - ca * um) - y
    elif has_mul:
        uu = (u * u).sum()
        uy = (u * y).sum()
        ca = uy / uu if uu > 0 else 0.0
        resid = u * ca - y
    elif has_add:
        resid = u + (y - u).mean() - y
    else:
        resid = u - y
    sse = float((resid * resid).sum())
    return sse if np.isfinite(sse) else np.inf


def scipy_fit_inner(k, grid, target, at, has_mul, has_add):
    """(inner constants, SSE) of a shape's core with ``k`` slots, or
    (None, inf): starts chosen on ``grid`` (three bounded-Brent brackets
    for one slot, three Nelder-Mead starts from a coarse grid for two, 64
    fixed starts for more), each refined by its own scipy call on the
    profiled SSE of ``at(c)``; the first best refinement wins.  ``at`` is a
    compiled core's evaluator: given a slot's (G, 1) column of values, it
    yields a (G, m) table, one row per value."""
    from scipy.optimize import minimize, minimize_scalar

    m = target.size

    def sse_of(c):
        u = np.broadcast_to(np.asarray(at(c), dtype=float), target.shape)
        return profiled_sse_1d(u, target, has_mul, has_add)

    def table_sse(values, n):
        u = np.broadcast_to(np.asarray(at(values), dtype=float), (n, m))
        return profiled_sse(u, target, has_mul, has_add)[0]

    if k == 1:
        sse = table_sse((grid[:, None],), grid.size)
        best_c, best_sse = None, np.inf
        for idx in np.argsort(sse, kind="stable")[:3]:
            if not np.isfinite(sse[idx]):
                continue
            lo = grid[idx - 1] if idx > 0 else grid[idx] - 1.0
            hi = grid[idx + 1] if idx + 1 < grid.size else grid[idx] + 1.0
            res = minimize_scalar(
                lambda c: min(sse_of((c,)), 1e300),
                bounds=(lo, hi),
                method="bounded",
                options={"xatol": 1e-12},
            )
            if np.isfinite(res.fun) and float(res.fun) < best_sse:
                best_sse, best_c = float(res.fun), float(res.x)
        return (None, np.inf) if best_c is None else ((best_c,), best_sse)
    if k == 2:
        coarse = grid[:: max(1, grid.size // 28)]
        best = []
        for c1 in coarse:
            sse = table_sse((c1, coarse[:, None]), coarse.size)
            idx = int(np.argmin(sse))
            if np.isfinite(sse[idx]):
                best.append((float(sse[idx]), float(c1), float(coarse[idx])))
        best.sort()
        starts, maxiter = [[c1, c2] for _, c1, c2 in best[:3]], 400
    else:
        combos = itertools.product((0.0, 1.0, -1.0, 2.0), repeat=k)
        starts, maxiter = [list(c) for c in itertools.islice(combos, 64)], 600
    best_v, best_sse = None, np.inf
    for x0 in starts:
        res = minimize(
            sse_of,
            x0=x0,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": maxiter},
        )
        if np.isfinite(res.fun) and res.fun < best_sse:
            best_sse, best_v = float(res.fun), tuple(float(v) for v in res.x)
    return best_v, best_sse


if __name__ == "__main__":
    for case in ("ripple", "cone"):
        for method in ("extrusion", "nn_ambient"):
            print(f"{case} / {method}")
            for i, (rmse, mx, n) in enumerate(oracle_band_errors(case, method)):
                lo = BAND_EDGES[i]
                hi = BAND_EDGES[i + 1] if i + 1 < len(BAND_EDGES) else float("inf")
                print(f"  band [{lo:g},{hi:g}): rmse={rmse!r} max_abs={mx!r} n={n}")
