"""Direct constructions of Weyl orbits, weight sets, Freudenthal tables
and moment graph edges, kept as references for the structured ones in
the package.

* :func:`bfs_orbit` and :func:`signed_orbit` reflect every point in
  every simple root and keep what they have seen;
  :func:`dominant_representative` reflects in the first simple root
  with a negative pairing.  The package walks each orbit once from its
  dominant point in Dynkin-label coordinates, with no seen set.
* :func:`membership_weights` tests each candidate: reflect it to its
  dominant conjugate, then compare with the highest coweight in the
  dominance order.  The package instead walks dominant coweights down
  positive roots and their Weyl orbits.
* :func:`freudenthal_table` runs the recursion against a separately
  enumerated weight set, reading each ``mu + k alpha`` through its
  dominant conjugate.  The package reads the table it is filling.
* :func:`pair_edges` tests every vertex pair against every positive
  root.  The package walks root strings through a vertex index.
"""

from __future__ import annotations

from gkmfactor import rootsystem as rsys
from gkmfactor.momentgraph import Edge


def reflect(rs, v, root):
    """Reflection of ``v`` in the hyperplane of ``root`` (self-dual convention)."""
    k = rsys.pairing(rs, v, root)
    return tuple(x - k * y for x, y in zip(v, root))


def dominant_representative(rs, v):
    """The dominant conjugate of ``v``."""
    while True:
        for a in rs.simple_roots:
            if sum(x * y for x, y in zip(v, a)) < 0:
                v = reflect(rs, v, a)
                break
        else:
            return v


def bfs_orbit(rs, v) -> list:
    """The Weyl orbit of ``v`` in breadth-first order along simple reflections."""
    seen = {v}
    queue = [v]
    for x in queue:
        for a in rs.simple_roots:
            y = reflect(rs, x, a)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return queue


def signed_orbit(rs, v) -> dict:
    """``{point: det w}`` over the Weyl orbit of a regular ``v``, ``+1`` at ``v``."""
    signs = {v: 1}
    stack = [v]
    while stack:
        x = stack.pop()
        for a in rs.simple_roots:
            y = reflect(rs, x, a)
            if y == x:
                raise ValueError("vector is not regular, orbit signs undefined")
            if y not in signs:
                signs[y] = -signs[x]
                stack.append(y)
    return signs


def membership_weights(rs, lam) -> list:
    """The weight set of V(lam), sorted, by a membership test per candidate."""
    seen = {lam}
    queue = [lam]
    while queue:
        v = queue.pop()
        for a in rs.simple_roots:
            w = tuple(x - y for x, y in zip(v, a))
            if w not in seen and rsys.dominance_leq(rs, dominant_representative(rs, w), lam):
                seen.add(w)
                queue.append(w)
    return sorted(seen)


def freudenthal_table(rs, lam) -> dict:
    """Weight table of V(lam): dominant weights by decreasing height,
    each orbit sorted."""
    weight_set = set(membership_weights(rs, lam))
    dominants = sorted(
        (v for v in weight_set if rsys.is_dominant(rs, v)),
        key=lambda v: (rsys.height_key(rs, v), v),
        reverse=True,
    )

    def norm4(v):
        return sum((2 * x + r) ** 2 for x, r in zip(v, rs.two_rho))

    mult = {lam: 1}
    for mu in dominants[1:]:
        num = 0
        for alpha in rs.positive_roots:
            k = 1
            while True:
                w = tuple(x + k * a for x, a in zip(mu, alpha))
                if w not in weight_set:
                    break
                rep = dominant_representative(rs, w)
                num += sum(x * a for x, a in zip(w, alpha)) * mult[rep]
                k += 1
        value, rest = divmod(8 * num, norm4(lam) - norm4(mu))
        assert not rest and value > 0
        mult[mu] = value
    return {v: m for mu, m in mult.items() for v in sorted(bfs_orbit(rs, mu))}


def _edge_datum(rs, mu, nu):
    """The (positive root, n) with nu - mu = n*root, or None."""
    diff = tuple(a - b for a, b in zip(nu, mu))
    for alpha in rs.positive_roots:
        k = next(i for i, c in enumerate(alpha) if c)
        if diff[k] % alpha[k]:
            continue
        n = diff[k] // alpha[k]
        if n and all(d == n * a for d, a in zip(diff, alpha)):
            return alpha, n
    return None


def pair_edges(rs, vertices) -> list:
    """Edges over ``vertices`` (in their given order), sorted by (i, j)."""
    edges = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            datum = _edge_datum(rs, vertices[i], vertices[j])
            if datum is None:
                continue
            alpha, n = datum
            k = n + rsys.pairing(rs, vertices[i], alpha)
            edges.append(Edge(i, j, tuple(rs.root_simple_coeffs[alpha]) + (k,)))
    return edges
