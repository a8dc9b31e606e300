"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the package's enumeration machinery: shapes are
plain lists, fillings are dicts, and every candidate is generated and
filtered rather than pruned.
"""

def brute_partition_count(n, max_part=None, max_rows=None):
    """Count partitions of n with bounded part size and row count."""
    max_part = n if max_part is None else max_part
    max_rows = n if max_rows is None else max_rows
    if n == 0:
        return 1
    if max_rows == 0:
        return 0
    return sum(
        brute_partition_count(n - p, p, max_rows - 1)
        for p in range(1, min(n, max_part) + 1)
    )


def brute_multipartition_count(n, m):
    """Convolution of bounded-row partition counts over component sizes."""
    r = len(m)
    if r == 1:
        return brute_partition_count(n, max_rows=m[0])
    return sum(
        brute_partition_count(k, max_rows=m[0])
        * brute_multipartition_count(n - k, m[1:])
        for k in range(n + 1)
    )


def brute_cells(multipartition):
    """1-based cells (i, j, k) of a multipartition given as nested lists."""
    out = []
    for k, comp in enumerate(multipartition, start=1):
        for i, rowlen in enumerate(comp, start=1):
            for j in range(1, rowlen + 1):
                out.append((i, j, k))
    return out


def brute_entry_le(e1, e2):
    (a1, c1), (a2, c2) = e1, e2
    return c1 < c2 or (c1 == c2 and a1 <= a2)


def brute_is_semistandard(cells, filling):
    for (i, j, k) in cells:
        a, c = filling[(i, j, k)]
        if c < k:
            return False
        if (i, j + 1, k) in filling and not brute_entry_le(
            filling[(i, j, k)], filling[(i, j + 1, k)]
        ):
            return False
        if (i + 1, j, k) in filling:
            below = filling[(i + 1, j, k)]
            if not brute_entry_le(filling[(i, j, k)], below) or below == (a, c):
                return False
    return True


def brute_multipartition_tableaux(multipartition, weight):
    """All semistandard fillings, by filtering every assignment of entries.

    weight[k-1][i-1] is the multiplicity of entry (i, k), 1-based. Exponential;
    keep the inputs tiny.
    """
    cells = brute_cells(multipartition)
    entries = []
    for k, row in enumerate(weight, start=1):
        for i, count in enumerate(row, start=1):
            entries.extend([(i, k)] * count)
    if len(entries) != len(cells):
        return []
    seen = set()
    out = []
    from itertools import permutations

    for perm in permutations(entries):
        if perm in seen:
            continue
        seen.add(perm)
        filling = dict(zip(cells, perm))
        if brute_is_semistandard(cells, filling):
            out.append(filling)
    return out


def brute_ssyt_count(shape, weight):
    """Single-component semistandard count by row-wise generation."""
    shape = [x for x in shape if x]
    if sum(shape) != sum(weight):
        return 0
    if not shape:
        return 1
    letters = len(weight)

    def rows(length, lo_row):
        # lo_row[j] is the strict lower bound from the row above.
        def rec(j, prev):
            if j == length:
                yield ()
                return
            for v in range(max(prev, lo_row[j] + 1), letters + 1):
                for rest in rec(j + 1, v):
                    yield (v,) + rest

        return rec(0, 1)

    total = 0

    def fill(i, above, remaining):
        nonlocal total
        if i == len(shape):
            if all(x == 0 for x in remaining):
                total += 1
            return
        lo = [above[j] if j < len(above) else 0 for j in range(shape[i])]
        for row in rows(shape[i], lo):
            counts = list(remaining)
            ok = True
            for v in row:
                counts[v - 1] -= 1
                if counts[v - 1] < 0:
                    ok = False
                    break
            if ok:
                fill(i + 1, row, counts)

    fill(0, [], list(weight))
    return total


def brute_lattice_word(word):
    """Every prefix of the word (letters 1-based) has weakly decreasing counts."""
    counts = {}
    for a in word:
        counts[a] = counts.get(a, 0) + 1
        if a > 1 and counts.get(a - 1, 0) < counts[a]:
            return False
    return True


def brute_lr(nu, la, mu):
    """LR coefficient: skew SSYT of nu/la, weight mu, reverse-reading lattice.

    Fully independent row-by-row generation with a final lattice filter.
    """
    nu = list(nu)
    la = list(la) + [0] * (len(nu) - len(la))
    if sum(nu) - sum(la) != sum(mu):
        return 0
    if any(l > n for n, l in zip(nu, la)):
        return 0
    letters = len(mu)
    rows = len(nu)

    def gen_row(i, above):
        length = nu[i] - la[i]
        cols = range(la[i], nu[i])

        def rec(j, prev):
            if j == length:
                yield ()
                return
            col = la[i] + j
            lo = 1 if prev is None else prev
            floor = above.get(col, 0) + 1
            for v in range(max(lo, floor), letters + 1):
                for rest in rec(j + 1, v):
                    yield (v,) + rest

        return rec(0, None)

    total = 0

    def fill(i, above, acc):
        nonlocal total
        if i == rows:
            word = []
            for row_vals, start in acc:
                word.extend(reversed(row_vals))
            counts = [0] * (letters + 1)
            ok = True
            for a in word:
                counts[a] += 1
            if counts[1:] != list(mu) + [0] * (letters - len(mu)):
                return
            if brute_lattice_word(word):
                total += 1
            return
        for row_vals in gen_row(i, above):
            new_above = {la[i] + j: v for j, v in enumerate(row_vals)}
            fill(i + 1, new_above, acc + [(row_vals, la[i])])

    fill(0, {}, [])
    return total


def brute_subdiagrams(parts):
    """Every partition (as a tuple without zeros) whose diagram lies inside
    the partition `parts`, by filtering all bounded row-length tuples."""
    from itertools import product

    out = []
    for rows in product(*(range(p + 1) for p in parts)):
        if all(a >= b for a, b in zip(rows, rows[1:])):
            out.append(tuple(x for x in rows if x))
    return out


def brute_layer_chains(la, sizes):
    """Every chain (levels[0], ..., levels[r]) of nested multipartitions with
    levels[r] = la, levels[0] empty, level k empty in components k+1..r
    (1-based), and the layer from level k-1 to level k of size sizes[k-1].

    la is a list of r partitions given as lists; levels come back as tuples
    of tuples. Candidates are every choice of sub-multipartitions of la for
    the inner levels, filtered by the conditions above.
    """
    from itertools import product

    r = len(la)
    top = tuple(tuple(c) for c in la)
    empty = ((),) * r
    subs = list(product(*(brute_subdiagrams(c) for c in top)))

    def inside(small, big):
        return all(
            len(s) <= len(b) and all(x <= y for x, y in zip(s, b))
            for s, b in zip(small, big)
        )

    def size(level):
        return sum(sum(c) for c in level)

    out = set()
    for middle in product(subs, repeat=r - 1):
        levels = (empty,) + middle + (top,)
        if any(any(levels[k][k:]) for k in range(r)):
            continue
        if not all(inside(levels[k - 1], levels[k]) for k in range(1, r + 1)):
            continue
        if all(size(levels[k]) - size(levels[k - 1]) == sizes[k - 1] for k in range(1, r + 1)):
            out.add(levels)
    return out


def product_filter_layer_chains(la, sizes):
    """The chains of brute_layer_chains as a list, in the order of the
    original enumeration: level by level from la down, every partial chain
    extended, in list order, by each choice from the full product of the
    sub-diagram lists of its components, filtered by size.

    Each sub-diagram list is in descending lexicographic order. la is a list
    of r partitions given as lists; levels come back as tuples of tuples.
    """
    from itertools import product

    r = len(la)
    chains = [(tuple(tuple(c) for c in la),)]
    for k in range(r, 0, -1):
        extended = []
        for chain in chains:
            current = chain[0]
            target = sum(map(sum, current)) - sizes[k - 1]
            pools = [sorted(brute_subdiagrams(c), reverse=True) for c in current[: k - 1]]
            for inner in product(*pools):
                if sum(map(sum, inner)) == target:
                    extended.append((inner + ((),) * (r - k + 1),) + chain)
        chains = extended
    return chains


def unindexed_chain_sum(la, mu, count):
    """The chain-route multiplicity of (la, mu) summed over every slicing of
    brute_layer_chains, each the product over all components k of
    count(outer, inner, k, weight_row) for its layer levels[k+1]/levels[k]
    with mu's row k, component 0 included.

    la and mu are lists of r partitions given as lists; count gets levels
    as tuples of tuples and the row as a tuple.
    """
    rows = [tuple(c) for c in mu]
    total = 0
    for levels in brute_layer_chains(la, [sum(row) for row in rows]):
        product = 1
        for k, row in enumerate(rows):
            product *= count(levels[k + 1], levels[k], k, row)
        total += product
    return total


def naive_scan(n_max, r, index, constants):
    """The conjecture-scan report with one product per ordered pair.

    index(a) lists the multipartitions of size a in scan order, and
    constants(la, mu) gives the (nu, c) terms of their product in canonical
    order. Every ordered pair (la, mu) with |la| + |mu| <= n_max is visited
    in the scan's order and gets its own call.
    """
    scanned, negatives, support = 0, [], []
    for total in range(n_max + 1):
        for a in range(total + 1):
            for la in index(a):
                for mu in index(total - a):
                    scanned += 1
                    target = [x.size + y.size for x, y in zip(la.components, mu.components)]
                    for nu, c in constants(la, mu):
                        if c < 0:
                            negatives.append((la, mu, nu, c))
                        if c and [x.size for x in nu.components] != target:
                            support.append((la, mu, nu, c))
    return {
        "n_max": n_max,
        "r": r,
        "scanned": scanned,
        "c1_violations": negatives,
        "c2_violations": support,
    }
