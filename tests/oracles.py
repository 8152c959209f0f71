"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obviously-correct way:
subset enumeration instead of recurrences, dense factorizations instead of
iterative solvers, textbook cotangent weights instead of the batched
assembly, and the row-wise unique edge table and the einsum contractions
that the package's batched geometry kernels replaced.  If a package routine
and its oracle agree, the fast path earns its keep.  resolvent_bound_check
is a check rather than a reference: random trials of the resolvent bound
that lam1(K, M) implies.  t_r_spectrum is the exact T_r eigensolve that
the corollary's Ritz bound stands in for.  None of these functions are
used by the package itself.
"""

import itertools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from curvspec import birman, curvature, eigen, verify
from curvspec.assemble import OperatorPencil, shift_ladder, spectral_scale
from curvspec.errors import BoundViolationError
from curvspec.mesh import TriMesh

# K is positive semidefinite and its kernel is the constants, so a shift of
# this fraction of the mean W^2 below 0 is a valid shift-invert target for
# the bare stiffness
KERNEL_SHIFT_FRACTION = 0.01


def elementary_symmetric_bruteforce(kappas, r):
    """Sum over all r-subsets, the definition itself."""
    kappas = list(kappas)
    if r == 0:
        return 1.0
    return float(sum(
        np.prod(combo) for combo in itertools.combinations(kappas, r)
    ))


def newton_eigenvalues_deleteone(kappas, r):
    """eig_i(P_r) = S_r of the tuple with kappa_i removed."""
    kappas = list(kappas)
    out = []
    for i in range(len(kappas)):
        rest = kappas[:i] + kappas[i + 1:]
        out.append(elementary_symmetric_bruteforce(rest, r))
    return np.array(out)


def cotan_stiffness(mesh):
    """Textbook cotangent-weight stiffness of the Laplacian (P = identity)."""
    nv = mesh.n_vertices
    x = mesh.vertices[mesh.faces]
    k = sp.lil_matrix((nv, nv))
    for f in range(mesh.n_faces):
        for c in range(3):
            a = mesh.faces[f, (c + 1) % 3]
            b = mesh.faces[f, (c + 2) % 3]
            u = x[f, (c + 1) % 3] - x[f, c]
            v = x[f, (c + 2) % 3] - x[f, c]
            cot = float(np.dot(u, v) / np.linalg.norm(np.cross(u, v)))
            k[a, b] -= 0.5 * cot
            k[b, a] -= 0.5 * cot
            k[a, a] += 0.5 * cot
            k[b, b] += 0.5 * cot
    return k.tocsr()


def dense_eigenpairs(a_mat, mass, k):
    """k smallest eigenpairs of A x = lambda M x via LAPACK on dense copies.

    Symmetrized with M^(-1/2) on both sides; the vectors come back
    M-orthonormal, as columns.  The reference every ARPACK solve of the
    package is checked against.
    """
    dense = a_mat.toarray() if sp.issparse(a_mat) else np.asarray(a_mat, dtype=float)
    s = 1.0 / np.sqrt(mass)
    sym = dense * s[:, None] * s[None, :]
    vals, y = sla.eigh(0.5 * (sym + sym.T), subset_by_index=[0, k - 1])
    return vals, s[:, None] * y


def dense_shifted_solve(a_mat, mass, shift, b, zero_mean=False):
    """y with (A + shift*M) y = b by LAPACK on a dense copy.

    With ``zero_mean`` (A = K, shift 0) the solve is that of the bordered
    system [[K, m], [m^T, 0]] [y; c] = [b; 0], m = M 1: y has zero M-mean
    and c takes the constant part of b.  The reference the package's
    banded Cholesky solves are checked against.
    """
    dense = a_mat.toarray() if sp.issparse(a_mat) else np.asarray(a_mat, dtype=float)
    dense = dense + shift * np.diag(mass)
    if not zero_mean:
        return sla.solve(dense, b, assume_a="sym")
    nv = len(mass)
    bordered = np.zeros((nv + 1, nv + 1))
    bordered[:nv, :nv] = dense
    bordered[:nv, nv] = bordered[nv, :nv] = mass
    return sla.solve(bordered, np.append(b, 0.0), assume_a="sym")[:nv]


def kernel_shift(pencil):
    """Shift-invert target for the PSD stiffness: just below 0."""
    return -KERNEL_SHIFT_FRACTION * spectral_scale(pencil.mass, pencil.w)


def shifted_lam1(pencil, seed=0):
    """lam1 of (K, M) by shift-invert of K + eps M, eps = 0.01 mean W^2.

    The second eigenvalue of the bare stiffness on its own factor: the
    lam1 of the resolvent trials and of the scan's kernel bounds.
    """
    return float(eigen.smallest_eigenpairs(
        pencil.k_stiff, pencil.mass, 2, sigma=kernel_shift(pencil),
        seed=seed, layout=pencil.layout,
    ).eigenvalues[1])


def with_potential_squared(pencil, w_squared):
    """Same stiffness, mass and band layout, replacement potential (as W^2)."""
    w2 = np.asarray(w_squared, dtype=float)
    if w2.shape != pencil.mass.shape:
        raise ValueError("potential samples must be one value per vertex")
    if np.any(w2 < 0.0):
        raise ValueError("squared potential samples must be nonnegative")
    return OperatorPencil(
        k_stiff=pencil.k_stiff,
        mass=pencil.mass,
        w=np.sqrt(w2),
        potential=pencil.mass * w2,
        layout=pencil.layout,
        r=pencil.r,
    )


def t_r_spectrum(field, pencil, config=verify.VerifyConfig(), k=2):
    """(T_r pencil, its k smallest eigenpairs) for the pencil of ``field``.

    T_r is the pencil with W^2 replaced by verify.t_potential(field),
    solved by shift-invert on the first rung of its own shift_ladder that
    factors, at the eigensolver's default tolerance and the config's seed.
    """
    t_pencil = with_potential_squared(pencil, verify.t_potential(field))
    return t_pencil, eigen.smallest_eigenpairs(
        t_pencil.a_matrix(), t_pencil.mass, k, sigma=shift_ladder(t_pencil),
        seed=config.seed, layout=t_pencil.layout,
        what="T_r eigensolve")


def resolvent_bound_check(pencil, mu, lam1, trials=100, seed=0):
    """Min slack of ||R_mu g||_M <= ||g||_M / (lam1 + mu) over random g.

    g is drawn gaussian and projected to zero M-mean, so the relevant
    spectral floor is lam1, the smallest nonzero eigenvalue of (K, M)
    (shifted_lam1).  Raises BoundViolationError if any trial
    lands below -1e-8 relative.  The bound holds for any PSD K once lam1
    is right, so it checks lam1 and the shifted solve.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    a = pencil.mass
    area = float(a.sum())
    solve = eigen._shifted_solver(pencil.k_stiff, a, mu, layout=pencil.layout)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        g = rng.standard_normal(pencil.n_vertices)
        g -= float(a @ g) / area
        norm_g = np.sqrt(float(g @ (a * g)))
        y = solve(a * g)
        norm_y = np.sqrt(float(y @ (a * y)))
        allowed = norm_g / (lam1 + mu)
        margin = allowed - norm_y
        worst = min(worst, margin)
        if margin < -1e-8 * allowed:
            raise BoundViolationError(
                f"resolvent bound violated at mu={mu:.6g}: "
                f"||R_mu g|| = {norm_y:.12g} > {allowed:.12g}",
                seed=seed, margin=margin,
            )
    return worst


def rayleigh_quotient(a_mat, mass, x):
    """<Ax, x> / <Mx, x> for a single vector."""
    x = np.asarray(x, dtype=float)
    denom = float(x @ (mass * x))
    if denom <= 0.0:
        raise ValueError("vector has zero M-norm")
    return float(x @ (a_mat @ x)) / denom


def dense_K_mu_eigenpairs(pencil, mu, k, w_perp=False):
    """Largest k eigenpairs of the kernel built as an explicit dense matrix.

    (K + mu M)^(-1) is formed by solving for every column of the identity,
    and the kernel symmetrized with M^(1/2) on both sides so a plain symmetric
    eigendecomposition applies; similarity keeps the spectrum intact.
    ``w_perp`` projects out the potential samples W, M-orthogonally.
    Returns the values descending and the M-orthonormal eigenvectors g as
    columns.
    """
    nv = pencil.n_vertices
    a = (pencil.k_stiff + mu * sp.diags(pencil.mass)).toarray()
    inv = np.linalg.solve(a, np.eye(nv))   # the columns (K + mu M)^(-1) e_j
    w = pencil.w
    m = pencil.mass
    kern = (w[:, None] * inv * (m * w)[None, :])
    sqm = np.sqrt(m)
    sym = sqm[:, None] * kern / sqm[None, :]
    if w_perp:
        q = sqm * w / np.linalg.norm(sqm * w)
        proj = np.eye(nv) - np.outer(q, q)
        sym = proj @ sym @ proj
    vals, z = np.linalg.eigh(0.5 * (sym + sym.T))
    order = np.argsort(vals)[::-1][:k]
    return vals[order], z[:, order] / sqm[:, None]


def full_grid_scan(pencil, mu_min=None, mu_max=None, steps=32, k=3, seed=0):
    """The Birman-Schwinger scan with a full ARPACK top-k at every grid point.

    Each grid point factors K + mu M and runs the kernel eigensolve on it;
    each branch that crosses 1 inside a cell is followed by safeguarded
    Newton from the cell's regula-falsi point, one full factorization and
    eigensolve per iterate.  Returns (grid, tops (S, k), crossings), each
    crossing a (mu0, branch, |top - 1|, evaluations) tuple sorted by mu0:
    the reference of birman.scan_crossings' reduced-basis grid and crossings.
    """
    mu_min, mu_max = birman.mu_window(pencil.w, mu_min, mu_max)
    grid = np.geomspace(mu_min, mu_max, steps)

    def top(mu, k):
        return birman._kernel_top(pencil, mu, k, seed)

    tops = np.array([top(mu, k)[0] for mu in grid])
    crossings = []
    for j in range(k):
        f = tops[:, j] - 1.0
        for s in range(steps - 1):
            if f[s] > 0.0 >= f[s + 1]:
                mu0, err, evals = birman._newton_root(
                    birman._branch(top, k, j), grid[s], grid[s + 1], f[s],
                    f[s + 1])
                crossings.append((mu0, j, err, evals))
    return grid, tops, sorted(crossings)


def eigenspace_distance(vals, vecs, ref_vals, ref_vecs, mass, tol):
    """Largest M-distance of each vector from its reference eigenspace.

    The reference eigenspace of vals[j] is the span of the ref_vecs columns
    (M-orthonormal) whose ref_vals lie within ``tol`` of it, so clusters of
    equal eigenvalues are compared as subspaces, not vector by vector.
    """
    worst = 0.0
    for lam, x in zip(vals, vecs.T):
        basis = ref_vecs[:, np.abs(ref_vals - lam) <= tol]
        rest = x - basis @ (basis.T @ (mass * x))
        worst = max(worst, float(np.sqrt(rest @ (mass * rest))
                                 / np.sqrt(x @ (mass * x))))
    return worst


def lumped_vertex_areas(mesh):
    """Barycentric vertex areas recomputed with a per-face python loop."""
    areas = np.zeros(mesh.n_vertices)
    for f in range(mesh.n_faces):
        third = mesh.face_areas[f] / 3.0
        for c in range(3):
            areas[mesh.faces[f, c]] += third
    return areas


def vertex_measures_add_at(mesh):
    """Vertex areas and unit normals by np.add.at scatters, one face corner
    at a time: the reference of TriMesh's bincount sums, which add the
    same terms in the same order."""
    v, f = mesh.vertices, mesh.faces
    areas = np.zeros(len(v))
    np.add.at(areas, f.ravel(), np.repeat(mesh.face_areas / 3.0, 3))
    normals = np.zeros_like(v)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u = v[f[:, b]] - v[f[:, a]]
        w = v[f[:, c]] - v[f[:, a]]
        d1 = np.einsum("ij,ij->i", u, u)
        d2 = np.einsum("ij,ij->i", w, w)
        good = (d1 > 0.0) & (d2 > 0.0)
        wt = np.zeros(len(f))
        wt[good] = 1.0 / (d1[good] * d2[good])
        np.add.at(normals, f[:, a], wt[:, None] * np.cross(u, w))
    norms = np.linalg.norm(normals, axis=1)
    ok = norms > 0.0
    normals[ok] /= norms[ok, None]
    return areas, normals


def edge_table_rows(faces):
    """(edges, inverse, counts) by a row-wise unique of the sorted directed
    edges 01, 12, 20 of every face: the edge table's reference."""
    fe = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edges, inv, counts = np.unique(
        np.sort(fe, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    return edges, inv.ravel(), counts


def subdivide_rows(mesh, target):
    """One 1-to-4 midpoint refinement on edge_table_rows, midpoints
    projected onto ``target``: the reference of mesh.subdivide_project."""
    v, f = mesh.vertices, mesh.faces
    edges, inv, _ = edge_table_rows(f)
    mids = target.project(0.5 * (v[edges[:, 0]] + v[edges[:, 1]]))
    m01, m12, m20 = (len(v) + inv.reshape(-1, 3)).T
    children = np.empty((4 * len(f), 3), dtype=np.int64)
    children[0::4] = np.stack([f[:, 0], m01, m20], axis=1)
    children[1::4] = np.stack([f[:, 1], m12, m01], axis=1)
    children[2::4] = np.stack([f[:, 2], m20, m12], axis=1)
    children[3::4] = np.stack([m01, m12, m20], axis=1)
    return np.vstack([v, mids]), children


def off_text_rows(mesh):
    """The OFF text of ``mesh`` formatted one row per Python call: the
    reference of mesh.write_off's whole-block formatting."""
    rows = ["OFF\n", f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_edges}\n"]
    for x, y, z in mesh.vertices:
        rows.append("%.17g %.17g %.17g\n" % (x, y, z))
    for i, j, k in mesh.faces:
        rows.append(f"3 {i} {j} {k}\n")
    return "".join(rows)


def shape_operators_lstsq(mesh, basis):
    """Per-face shape operators in ``basis`` by least squares of the six
    edge equations, face by face: the reference of the closed-form fit
    in curvature.estimate_shape_operators."""
    v, vn = mesh.vertices, mesh.vertex_normals
    ops = np.empty((mesh.n_faces, 2, 2))
    for i, face in enumerate(mesh.faces):
        rows, rhs = [], []
        for a, b in ((0, 1), (1, 2), (2, 0)):
            eu, ev = basis[i] @ (v[face[b]] - v[face[a]])
            du, dv = basis[i] @ (vn[face[b]] - vn[face[a]])
            rows += [(eu, ev, 0.0), (0.0, eu, ev)]
            rhs += [du, dv]
        s11, s12, s22 = np.linalg.lstsq(np.array(rows), np.array(rhs),
                                        rcond=None)[0]
        ops[i] = [[s11, s12], [s12, s22]]
    return ops


def face_ops_world_einsum(ops, basis):
    """World-frame 3x3 face operators, basis^T ops basis, by einsum."""
    return np.einsum("fab,fai,fbj->fij", ops, basis, basis)


def newton_transform_einsum(ops, basis, r):
    """World-frame P_r per face by einsum over the face operator's
    eigenbasis: the reference of CurvatureField.p_r_face."""
    evals, evecs = np.linalg.eigh(ops)
    newt = np.array([newton_eigenvalues_deleteone(e, r) for e in evals])
    p2 = np.einsum("fia,fa,fja->fij", evecs, newt, evecs)
    return face_ops_world_einsum(p2, basis)


def vertex_kappas_einsum(ops, basis, mesh):
    """Per-vertex principal curvatures by einsum contractions and
    np.add.at scatters: the reference of vertex_principal_curvatures."""
    nv = mesh.n_vertices
    ops3 = face_ops_world_einsum(ops, basis)
    acc = np.zeros((nv, 3, 3))
    wsum = np.zeros(nv)
    eye = np.eye(3)
    for corner in range(3):
        vid = mesh.faces[:, corner]
        # minimal rotation taking the face normal to the vertex normal
        a, b = mesh.face_normals, mesh.vertex_normals[vid]
        w = np.cross(a, b)
        wx = np.zeros((len(a), 3, 3))
        wx[:, 0, 1], wx[:, 0, 2], wx[:, 1, 2] = -w[:, 2], w[:, 1], -w[:, 0]
        wx[:, 1, 0], wx[:, 2, 0], wx[:, 2, 1] = w[:, 2], -w[:, 1], w[:, 0]
        denom = 1.0 + np.einsum("ij,ij->i", a, b)
        safe = denom > 1e-8
        factor = np.where(safe, 1.0 / np.where(safe, denom, 1.0), 0.0)
        rot = eye + wx + factor[:, None, None] * np.einsum("fij,fjk->fik", wx, wx)
        rot[~safe] = eye
        moved = np.einsum("fij,fjk,flk->fil", rot, ops3, rot)
        np.add.at(acc, vid, mesh.face_areas[:, None, None] * moved)
        np.add.at(wsum, vid, mesh.face_areas)
    acc /= wsum[:, None, None]
    n = mesh.vertex_normals
    helper = np.zeros_like(n)
    helper[np.arange(nv), np.argmin(np.abs(n), axis=1)] = 1.0
    u1 = np.cross(n, helper)
    u1 /= np.linalg.norm(u1, axis=1)[:, None]
    u2 = np.cross(n, u1)
    a = np.einsum("vi,vij,vj->v", u1, acc, u1)
    b = 0.5 * (np.einsum("vi,vij,vj->v", u1, acc, u2)
               + np.einsum("vi,vij,vj->v", u2, acc, u1))
    d = np.einsum("vi,vij,vj->v", u2, acc, u2)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + b * b)
    return np.stack([0.5 * (a + d) - disc, 0.5 * (a + d) + disc], axis=1)


def stiffness_einsum(mesh, p_r_face):
    """K from the einsum over face areas, hat gradients and P_r."""
    grads = mesh.hat_gradients()
    local = np.einsum("f,fai,fij,fbj->fab", mesh.face_areas, grads,
                      p_r_face, grads)
    local = 0.5 * (local + local.transpose(0, 2, 1))
    rows = np.broadcast_to(mesh.faces[:, :, None], local.shape)
    cols = np.broadcast_to(mesh.faces[:, None, :], local.shape)
    nv = mesh.n_vertices
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(nv, nv)).tocsr()


def misoriented_edges_loop(faces):
    """Misoriented edges of the (F, 3) ``faces`` found with one boolean
    mask per edge (quadratic).

    An interior edge is misoriented when both incident faces traverse it in
    the same direction; each entry is (sorted edge, faces in face order).
    """
    fe = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edges, inv, counts = edge_table_rows(faces)
    face_of = np.repeat(np.arange(len(faces)), 3)
    out = []
    for eid in range(len(edges)):
        if counts[eid] != 2:
            continue
        mask = inv == eid
        pair = fe[mask]
        if pair[0, 0] == pair[1, 0]:
            out.append((tuple(edges[eid].tolist()),
                        tuple(int(x) for x in face_of[mask])))
    return tuple(out)


def fd_principal_curvatures(surface, points, h=1e-4):
    """Ascending principal curvatures from central differences of implicit().

    The exact-curvature reference of the analytic surfaces: only the scalar
    implicit function g (negative inside) is sampled, at 19 points around
    each surface point p, with the absolute step ``h``.  The shape operator
    is the tangential block of the Hessian of g divided by |grad g|, which
    gives +1/R on a sphere of radius R.  ``points`` is (N, 3), or (3,) for
    one point; the result is (N, 2), or (2,).
    """
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    eye = np.eye(3)

    def g(offset):
        return surface.implicit(p + h * offset)

    plus = [g(eye[i]) for i in range(3)]
    minus = [g(-eye[i]) for i in range(3)]
    grad = np.stack([(plus[i] - minus[i]) / (2.0 * h) for i in range(3)], axis=1)
    hess = np.empty((len(p), 3, 3))
    g0 = g(np.zeros(3))
    for i in range(3):
        hess[:, i, i] = (plus[i] - 2.0 * g0 + minus[i]) / h**2
        for j in range(i + 1, 3):
            hess[:, i, j] = hess[:, j, i] = (
                g(eye[i] + eye[j]) - g(eye[i] - eye[j])
                - g(eye[j] - eye[i]) + g(-eye[i] - eye[j])
            ) / (4.0 * h**2)

    gn = np.linalg.norm(grad, axis=1)
    n = grad / gn[:, None]
    # Gram-Schmidt a frame out of the axis least aligned with the normal
    seed = eye[np.argmin(np.abs(n), axis=1)]
    t1 = seed - np.einsum("ni,ni->n", seed, n)[:, None] * n
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(n, t1)
    frame = np.stack([t1, t2], axis=1)                    # (N, 2, 3)
    b = np.einsum("nai,nij,nbj->nab", frame, hess, frame) / gn[:, None, None]
    k = np.linalg.eigvalsh(b)
    return k[0] if single else k


def maclaurin_gap(kappas):
    """H_1 - H_2^(1/2) of curvature pairs (..., 2), from the package's
    mean_curvature.

    Nonnegative for positive curvatures by Maclaurin's inequality at n = 2
    (the arithmetic-geometric mean inequality), and zero exactly when the
    two coincide.
    """
    k = np.asarray(kappas, dtype=float)
    return curvature.mean_curvature(k, 1) - np.sqrt(curvature.mean_curvature(k, 2))


def box_mesh(n=4, half_width=1.0):
    """Closed box surface [-h, h]^3 with each side split into an n x n grid.

    Planar sides with interior vertices make it the flat oracle for
    curvature and Dirichlet-energy tests.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    h = float(half_width)
    step = 2.0 * h / n
    sides = [
        ((-h, -h, +h), (1, 0, 0), (0, 1, 0)),   # +z
        ((-h, +h, -h), (1, 0, 0), (0, -1, 0)),  # -z
        ((+h, -h, -h), (0, 1, 0), (0, 0, 1)),   # +x
        ((-h, -h, -h), (0, 0, 1), (0, 1, 0)),   # -x
        ((-h, +h, -h), (0, 0, 1), (1, 0, 0)),   # +y
        ((-h, -h, -h), (1, 0, 0), (0, 0, 1)),   # -y
    ]
    key_to_id = {}
    verts = []
    faces = []

    def vid(p):
        key = tuple(int(round(c / h * n)) for c in p)  # exact lattice key
        if key not in key_to_id:
            key_to_id[key] = len(verts)
            verts.append(p)
        return key_to_id[key]

    for origin, du, dv in sides:
        o = np.array(origin, dtype=float)
        du = np.array(du, dtype=float) * step
        dv = np.array(dv, dtype=float) * step
        ids = np.empty((n + 1, n + 1), dtype=np.int64)
        for i in range(n + 1):
            for j in range(n + 1):
                ids[i, j] = vid(o + i * du + j * dv)
        for i in range(n):
            for j in range(n):
                a, b = ids[i, j], ids[i + 1, j]
                c, d = ids[i + 1, j + 1], ids[i, j + 1]
                faces.append([a, b, c])
                faces.append([a, c, d])
    return TriMesh(np.array(verts), np.array(faces, dtype=np.int64))


def apply_operator(pencil, x):
    """Matrix-vector product (K - M_W) x without forming the difference."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != pencil.n_vertices:
        raise ValueError(
            f"vector has length {x.shape[0]}, pencil has {pencil.n_vertices} vertices"
        )
    if x.ndim == 1:
        return pencil.k_stiff @ x - pencil.potential * x
    return pencil.k_stiff @ x - pencil.potential[:, None] * x


def export_coo(pencil, path):
    """Write K, M, M_W as labeled coordinate triplets (deterministic order)."""
    k = pencil.k_stiff.tocoo()
    order = np.lexsort((k.col, k.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# pencil r={pencil.r} V={pencil.n_vertices} nnz={k.nnz}\n")
        for i, j, v in zip(k.row[order], k.col[order], k.data[order]):
            fh.write("K %d %d %.17g\n" % (i, j, v))
        for i, v in enumerate(pencil.mass):
            fh.write("M %d %d %.17g\n" % (i, i, v))
        for i, v in enumerate(pencil.potential):
            fh.write("MW %d %d %.17g\n" % (i, i, v))
