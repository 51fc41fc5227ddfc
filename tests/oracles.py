"""Independent brute-force reference implementations used as test oracles.

Everything here favours obviousness over speed: per-voxel loops, full
pairwise distance matrices, and direct transcriptions of the defining
formulas.  The library must agree with these, never the other way round.
"""

import math

import numpy as np


# ---------------------------------------------------------------- warping


def warp_bilinear(img, u, v):
    """Backward warp with clamp-to-edge bilinear sampling, one pixel at a time."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=np.float64)
    for yy in range(h):
        for xx in range(w):
            sx = min(max(xx + u[yy, xx], 0.0), w - 1.0)
            sy = min(max(yy + v[yy, xx], 0.0), h - 1.0)
            x0 = int(math.floor(sx))
            y0 = int(math.floor(sy))
            x1 = min(x0 + 1, w - 1)
            y1 = min(y0 + 1, h - 1)
            fx = sx - x0
            fy = sy - y0
            top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
            bottom = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
            out[yy, xx] = top * (1.0 - fy) + bottom * fy
    return out


def impute_labels(labels, classes, n, flows=None):
    """Dense label imputation: argmax over every declared class's blended map.

    ``labels`` is a (Z, H, W) id volume.  For each gap and each ``t`` every
    class in ``0..classes-1`` gets a float one-hot map per endpoint, warped
    by ``flows(k, t) -> (u0, v0, u1, v1)`` (plain blend when ``flows`` is
    None) and blended with weights ``1-t`` and ``t``; ``np.argmax`` over the
    full (classes, H, W) stack picks the label, ties to the lower id.
    """
    z, h, w = labels.shape
    out = np.empty((z + (z - 1) * n, h, w), dtype=labels.dtype)
    for k in range(z):
        out[k * (n + 1)] = labels[k]
    for k in range(z - 1):
        for i in range(1, n + 1):
            t = i / (n + 1)
            stack = np.zeros((classes, h, w))
            warps = flows(k, t) if flows is not None else None
            for c in range(classes):
                m0 = (labels[k] == c).astype(np.float64)
                m1 = (labels[k + 1] == c).astype(np.float64)
                if warps is not None:
                    u0, v0, u1, v1 = warps
                    m0 = warp_bilinear(m0, u0, v0)
                    m1 = warp_bilinear(m1, u1, v1)
                stack[c] = (1.0 - t) * m0 + t * m1
            out[k * (n + 1) + i] = np.argmax(stack, axis=0)
    return out


# ----------------------------------------------------------------- losses


def mean_abs(a, b):
    total = 0.0
    n = 0
    for ra, rb in zip(a.tolist(), b.tolist()):
        for va, vb in zip(ra, rb):
            total += abs(va - vb)
            n += 1
    return total / n


def rec(pairs):
    return sum(mean_abs(a, b) for a, b in pairs) / len(pairs)


def field_gradient_l1(u, v):
    total = 0.0
    for comp in (u, v):
        h, w = comp.shape
        if w > 1:
            acc = 0.0
            for yy in range(h):
                for xx in range(w - 1):
                    acc += abs(comp[yy, xx + 1] - comp[yy, xx])
            total += acc / (h * (w - 1))
        if h > 1:
            acc = 0.0
            for yy in range(h - 1):
                for xx in range(w):
                    acc += abs(comp[yy + 1, xx] - comp[yy, xx])
            total += acc / ((h - 1) * w)
    return total


def tp_smooth_slice(arr):
    """Squared neighbour differences with out-of-range terms skipped, over rows*cols."""
    rows, cols = arr.shape
    total = 0.0
    for i in range(rows):
        for j in range(cols):
            if j - 1 >= 0:
                total += (arr[i, j - 1] - arr[i, j]) ** 2
            if i + 1 < rows:
                total += (arr[i + 1, j] - arr[i, j]) ** 2
    return total / (rows * cols)


def adv(ld_fake, gd_fake):
    n = len(ld_fake)
    return -sum(math.log(p) for p in ld_fake) / n - sum(math.log(p) for p in gd_fake) / n


def global_disc(gd_fake, gd_real):
    n = len(gd_fake)
    return -sum(math.log(1.0 - p) for p in gd_fake) / n - sum(math.log(p) for p in gd_real) / n


def multitask(ld_fake, ld_real, oc_fake, oc_real, y_fake, y_real):
    n = len(ld_fake)
    disc = -sum(math.log(1.0 - p) for p in ld_fake) / n
    disc -= sum(math.log(p) for p in ld_real) / n
    cls = -sum(y * math.log(p) for y, p in zip(y_fake, oc_fake)) / n
    cls -= sum(y * math.log(p) for y, p in zip(y_real, oc_real)) / n
    return disc + cls


# ---------------------------------------------------------------- metrics


def count(arr, class_id):
    return sum(1 for v in arr.ravel().tolist() if v == class_id)


def dice(gt_arr, pred_arr, class_id):
    n_gt = count(gt_arr, class_id)
    n_pred = count(pred_arr, class_id)
    if n_gt + n_pred == 0:
        return 100.0
    inter = sum(
        1
        for a, b in zip(gt_arr.ravel().tolist(), pred_arr.ravel().tolist())
        if a == class_id and b == class_id
    )
    return 200.0 * inter / (n_gt + n_pred)


def ravd(gt_arr, pred_arr, class_id):
    """(signed %, absolute %) or None when the reference mask is empty."""
    n_gt = count(gt_arr, class_id)
    if n_gt == 0:
        return None
    n_pred = count(pred_arr, class_id)
    signed = 100.0 * (n_pred - n_gt) / n_gt
    return signed, abs(signed)


def surface(arr, class_id):
    """Sorted (x, y, z) tuples of foreground voxels with an exposed face."""
    zdim, ydim, xdim = arr.shape
    grid = arr.tolist()
    out = []
    for z in range(zdim):
        for y in range(ydim):
            for x in range(xdim):
                if grid[z][y][x] != class_id:
                    continue
                for nx, ny, nz in (
                    (x - 1, y, z),
                    (x + 1, y, z),
                    (x, y - 1, z),
                    (x, y + 1, z),
                    (x, y, z - 1),
                    (x, y, z + 1),
                ):
                    outside = not (0 <= nx < xdim and 0 <= ny < ydim and 0 <= nz < zdim)
                    if outside or grid[nz][ny][nx] != class_id:
                        out.append((x, y, z))
                        break
    return sorted(out)


def surface_distances(gt_arr, pred_arr, class_id, spacing):
    """(assd, mssd) from the full pairwise distance matrix, or None if a surface is empty."""
    sa = surface(gt_arr, class_id)
    sb = surface(pred_arr, class_id)
    if not sa or not sb:
        return None
    scale = np.asarray(spacing, dtype=np.float64)
    a = np.asarray(sa, dtype=np.float64) * scale
    b = np.asarray(sb, dtype=np.float64) * scale
    matrix = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))
    d_ab = matrix.min(axis=1)
    d_ba = matrix.min(axis=0)
    assd = (d_ab.sum() + d_ba.sum()) / (len(a) + len(b))
    mssd = max(d_ab.max(), d_ba.max())
    return float(assd), float(mssd)
