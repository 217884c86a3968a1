"""Slow reference implementations of the tensor kernels in
``joinlab.joinings``, kept as the test oracle for the flat-index integer
kernels.

Every function here walks index tuples through ``index_to_tuple`` and
``tuple_to_index`` and does plain ``Fraction`` arithmetic per entry; none
uses a flat index map or the integer form.  The Markov push sums over
every pair of source and target tuples, and the Fourier tensor recomputes
each character's sign per tuple.
"""

from fractions import Fraction

from joinlab.spaces import index_to_tuple, space_size, tuple_to_index


def tuples(shape):
    return [index_to_tuple(shape, idx) for idx in range(space_size(shape))]


def flat_index_map(shape, per_axis):
    return [sum(col[t] for col, t in zip(per_axis, tup)) for tup in tuples(shape)]


def support(entries, shape):
    """(flat indices, values, split) of the nonzero entries; the split is
    (h, high, low) with h the most leading axes whose atom count is at
    most that of the rest, and high and low each cell's index on the axes
    before and after them."""
    cells = [idx for idx, x in enumerate(entries) if x]
    tups = [index_to_tuple(shape, idx) for idx in cells]
    h = max(
        h for h in range(len(shape) + 1)
        if space_size(shape[:h]) <= space_size(shape[h:])
    )
    high = [tuple_to_index(shape[:h], tup[:h]) for tup in tups]
    low = [tuple_to_index(shape[h:], tup[h:]) for tup in tups]
    return cells, [entries[idx] for idx in cells], (h, high, low)


def axis_sums(entries, shape, coords):
    out_shape = [shape[c] for c in coords]
    out = [Fraction(0)] * space_size(out_shape)
    for tup, x in zip(tuples(shape), entries):
        out[tuple_to_index(out_shape, [tup[c] for c in coords])] += x
    return out


def invariance_defect(entries, shape, perms):
    """max over perms g and tuples t of |v(g t) - v(t)|, g acting diagonally."""
    best = Fraction(0)
    for perm in perms:
        for tup, x in zip(tuples(shape), entries):
            moved = tuple_to_index(shape, [perm[t] for t in tup])
            best = max(best, abs(entries[moved] - x))
    return best


def sup_distance(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


def product(weight_lists):
    shape = [len(ws) for ws in weight_lists]
    out = []
    for tup in tuples(shape):
        w = Fraction(1)
        for ws, t in zip(weight_lists, tup):
            w *= ws[t]
        out.append(w)
    return out


def push(entries, shape, perms):
    """(T v)(z) = v(T^{-1} z) for a different permutation per axis."""
    out = [Fraction(0)] * len(entries)
    for tup, x in zip(tuples(shape), entries):
        out[tuple_to_index(shape, [perm[t] for perm, t in zip(perms, tup)])] = x
    return out


def conditionals(entries, shape, base_coords):
    """v(b, f) / v_base(b) for every base tuple b, in base index order."""
    fiber_coords = [c for c in range(len(shape)) if c not in base_coords]
    base_shape = [shape[c] for c in base_coords]
    fiber_shape = [shape[c] for c in fiber_coords]
    base = axis_sums(entries, shape, base_coords)
    out = []
    for b_idx, b in enumerate(tuples(base_shape)):
        row = []
        for f in tuples(fiber_shape):
            full = [0] * len(shape)
            for c, x in zip(base_coords, b):
                full[c] = x
            for c, y in zip(fiber_coords, f):
                full[c] = y
            row.append(entries[tuple_to_index(shape, full)] / base[b_idx])
        out.append(tuple(row))
    return out


def operator_kernel(entries, weight_lists, distinguished):
    """kernel[r][y] = v(y at distinguished, r elsewhere) / w(r), with w(r)
    the product weight of the rest tuple r."""
    shape = [len(ws) for ws in weight_lists]
    rest = [c for c in range(len(shape)) if c != distinguished]
    rest_weights = product([weight_lists[c] for c in rest])
    kernel = []
    for r, w in zip(tuples([shape[c] for c in rest]), rest_weights):
        row = []
        for y in range(shape[distinguished]):
            full = [0] * len(shape)
            full[distinguished] = y
            for c, t in zip(rest, r):
                full[c] = t
            row.append(entries[tuple_to_index(shape, full)] / w)
        kernel.append(tuple(row))
    return kernel


def validation_error(weight_lists, entries, joining):
    """The message ProductMeasure (or JoiningTensor) construction must raise
    for these entries, or None when they are valid."""
    shape = [len(ws) for ws in weight_lists]
    for tup, x in zip(tuples(shape), entries):
        if x < 0:
            return f"negative entry at {tup}"
    mass = sum(entries, Fraction(0))
    if mass != 1:
        return f"total mass is {mass}, expected 1"
    if joining:
        for coord, ws in enumerate(weight_lists):
            sums = tuple(axis_sums(entries, shape, [coord]))
            if sums != tuple(ws):
                return (
                    f"marginal onto coordinate {coord} is {sums}, "
                    f"expected the factor weights {tuple(ws)}"
                )
    return None


def transitions(kernel, source_weights, target_weights):
    """trans[s][t] = w_target(t) * kernel[t][s] / w_source(s)."""
    return [
        [wt * row[s] / ws for wt, row in zip(target_weights, kernel)]
        for s, ws in enumerate(source_weights)
    ]


def markov_push(entries, shape, trans_per_axis):
    """(P v)(z) = sum over t of v(t) * prod_i trans_i[t_i][z_i], summed over
    every pair of source and target tuples."""
    target_shape = [len(trans[0]) for trans in trans_per_axis]
    out = []
    for z in tuples(target_shape):
        acc = Fraction(0)
        for t, x in zip(tuples(shape), entries):
            for trans, a, b in zip(trans_per_axis, t, z):
                x *= trans[a][b]
            acc += x
        out.append(acc)
    return out


def character_coefficient(entries, k, order, key):
    """sum over every tuple t of v(t) * prod_i chi_{a_i}(t_i), the key given
    as one atom index per factor."""
    total = Fraction(0)
    for tup, x in zip(tuples([2**k] * order), entries):
        parity = 0
        for a, t in zip(key, tup):
            parity ^= bin(a & t).count("1") & 1
        total += -x if parity else x
    return total


def fourier_entries(k, order, table):
    """v(t) = 2^(-order k) * sum over keys a of c(a) * prod_i chi_{a_i}(t_i),
    keys given as one atom index per factor; the parity of every key is
    recomputed at every tuple."""
    g = 2**k
    norm = Fraction(1, g**order)
    out = []
    for tup in tuples([g] * order):
        acc = Fraction(0)
        for key, c in table.items():
            parity = 0
            for a, t in zip(key, tup):
                parity ^= bin(a & t).count("1") & 1
            acc += -c if parity else c
        out.append(norm * acc)
    return out
