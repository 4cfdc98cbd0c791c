/* The compiled kernels: build_graph, which lays out the CSR rows of every
 * SpeakerGraph (cdgcn/graphs.py), and Leiden's three per-level phases
 * (cdgcn/leiden.py), one call each per level: the sequential sweeps
 * local_move and refine_partition, and aggregate_graph. Each kernel
 * allocates and frees its own scratch and returns -1, having written
 * nothing, if it cannot.
 *
 * The sweeps are bit-exact with the per-node loops the tests keep as
 * oracles: nodes are visited in the given order, a node's weight into each
 * neighbouring community is summed from 0.0 in CSR row order, every gain
 * keeps the Python operand order, and the choice is the smallest label
 * among the maximal gains, as a strict scan in ascending label order
 * picks. Each sweep sums the K_c it starts from out of its labels, from
 * 0.0 in node order as np.bincount(labels, weights=k) does, and ends by
 * compacting its labels by first appearance, returning the community count.
 * Aggregation and graph building are bit-exact with the numpy code the
 * tests keep as their oracles. Built with -ffp-contract=off and no fast-math, so nothing is
 * contracted or reassociated. The graph is symmetric CSR (ptr, nbr, w)
 * without diagonal, k its weighted degrees; ids are below n. */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t idx;

/* Zeroed per-node scratch: reals doubles, ids ids and flags bytes for each
 * of n nodes, one block per type (never empty, so an empty graph gets one).
 * Fails, with every pointer NULL or allocated, if a block cannot be had. */
typedef struct {
    double *real;
    idx *id;
    uint8_t *flag;
} scratch;

static int scratch_alloc(scratch *s, idx n, idx reals, idx ids, idx flags) {
    s->real = NULL;
    s->id = NULL;
    s->flag = NULL;
    if (n < 0 || n > PTRDIFF_MAX / 64)   /* the block sizes would overflow */
        return 0;
    s->real = calloc((size_t)(n * reals + 1), sizeof *s->real);
    s->id = calloc((size_t)(n * ids + 1), sizeof *s->id);
    s->flag = calloc((size_t)(n * flags + 1), sizeof *s->flag);
    return s->real && s->id && s->flag;
}

static void scratch_free(scratch *s) {
    free(s->real);
    free(s->id);
    free(s->flag);
}

/* Relabels labels (all below n) to 0..C-1 by first appearance; first is n
 * ids of scratch. Returns C. */
static idx compact(idx n, idx *labels, idx *first) {
    idx count = 0;
    for (idx i = 0; i < n; i++)
        first[i] = -1;
    for (idx i = 0; i < n; i++) {
        if (first[labels[i]] < 0)
            first[labels[i]] = count++;
        labels[i] = first[labels[i]];
    }
    return count;
}

/* Sums v's row weights into w_to by neighbour label, skipping neighbours
 * outside community comm if parent is given; lists the labels in touched. */
static idx gather(const idx *ptr, const idx *nbr, const double *w, const idx *labels,
                  const idx *parent, idx comm, idx v, double *w_to, uint8_t *seen, idx *touched) {
    idx found = 0;
    for (idx e = ptr[v]; e < ptr[v + 1]; e++) {
        idx c = labels[nbr[e]];
        if (parent && parent[nbr[e]] != comm)
            continue;
        if (!seen[c]) {
            seen[c] = 1;
            touched[found++] = c;
        }
        w_to[c] += w[e];
    }
    return found;
}

/* Moves nodes to the neighbouring community, or a fresh singleton (last
 * in ties), of largest gain above tol. Communities 0..fresh-1 start
 * non-empty; a fresh singleton takes the smallest id emptied since, else
 * fresh. queue holds all n nodes in visit order and serves as a ring
 * buffer, with a flag barring duplicates. A moved node's neighbours outside
 * its new community are queued in row order. labels are updated in place,
 * then compacted. */
idx local_move(idx n, const idx *ptr, const idx *nbr, const double *w, const double *k,
               double gamma, double two_m, double tol, idx fresh, idx *labels, idx *queue) {
    scratch s;
    if (!scratch_alloc(&s, n, 2, 3, 2)) {
        scratch_free(&s);
        return -1;
    }
    double *running = s.real, *w_to = s.real + n;   /* K_c as nodes move */
    idx *comm_size = s.id, *touched = s.id + n, *first = s.id + 2 * n;
    uint8_t *in_queue = s.flag, *seen = s.flag + n;
    for (idx i = 0; i < n; i++) {
        comm_size[labels[i]]++;
        running[labels[i]] += k[i];
        in_queue[i] = 1;
    }

    idx head = 0, waiting = n, lowest = fresh;   /* no empty community below lowest */
    while (waiting-- > 0) {
        idx i = queue[head], a = labels[i], best = -2;   /* -2: none, -1: fresh */
        head = (head + 1) % n;
        in_queue[i] = 0;
        idx found = gather(ptr, nbr, w, labels, NULL, 0, i, w_to, seen, touched);
        double k_i = k[i], g_k = gamma * k_i, best_gain = 0.0;
        /* Gain of staying relative to sitting alone in an empty community. */
        double stay = w_to[a] - g_k * (running[a] - k_i) / two_m;
        for (idx t = 0; t < found; t++) {
            idx c = touched[t];
            double gain = w_to[c] - g_k * running[c] / two_m - stay;
            if (c != a && (gain > best_gain || (gain == best_gain && best >= 0 && c < best))) {
                best_gain = gain;
                best = c;
            }
            w_to[c] = 0.0;
            seen[c] = 0;
        }
        if (-stay > best_gain && comm_size[a] > 1) {
            best_gain = -stay;
            best = -1;
        }
        if (best == -2 || best_gain <= tol)
            continue;
        if (best == -1) {
            for (best = lowest; best < fresh && comm_size[best] > 0; best++) {}
            fresh += best == fresh;
            lowest = best + 1;
        }
        running[a] -= k_i;
        if (--comm_size[a] == 0) {
            running[a] = 0.0;
            lowest = a < lowest ? a : lowest;
        }
        running[best] += k_i;
        comm_size[best]++;
        labels[i] = best;
        for (idx e = ptr[i]; e < ptr[i + 1]; e++) {
            idx j = nbr[e];
            if (labels[j] != best && !in_queue[j]) {
                in_queue[j] = 1;
                queue[(head + waiting++) % n] = j;
            }
        }
    }
    idx count = compact(n, labels, first);
    scratch_free(&s);
    return count;
}

static int well_connected(double cross, double degree, double k_total, double gamma,
                          double two_m) {
    return cross >= gamma * degree * (k_total - degree) / two_m;
}

/* Refines parent communities (labels in parent, all below n) in turn,
 * starting from singletons. order lists `members` nodes in runs, one run
 * per parent community c to refine. In each run the members' cross (weight
 * to the rest of c) and connected are set first; then each member in order,
 * if still alone and well connected, joins the well-connected part of c
 * with largest gain above tol. Per-part state is indexed by the part's
 * founding node. The parts are written to ref_labels (n entries),
 * compacted. */
idx refine_partition(idx n, const idx *ptr, const idx *nbr, const double *w, const double *k,
                     const idx *parent, double gamma, double two_m, double tol,
                     const idx *order, idx members, idx *ref_labels) {
    scratch s;
    if (!scratch_alloc(&s, n, 4, 3, 2)) {
        scratch_free(&s);
        return -1;
    }
    double *ref_degree = s.real, *cross = s.real + n, *w_to = s.real + 2 * n;
    double *parent_degree = s.real + 3 * n;
    idx *ref_size = s.id, *cands = s.id + n, *first = s.id + 2 * n;
    uint8_t *connected = s.flag, *seen = s.flag + n;
    for (idx i = 0; i < n; i++) {
        ref_labels[i] = i;
        ref_size[i] = 1;
        ref_degree[i] = k[i];
        parent_degree[parent[i]] += k[i];
    }

    for (idx start = 0, end; start < members; start = end) {
        idx comm = parent[order[start]];
        double k_total = parent_degree[comm];
        for (end = start + 1; end < members && parent[order[end]] == comm; end++) {}
        for (idx t = start; t < end; t++) {
            idx v = order[t];
            for (idx e = ptr[v]; e < ptr[v + 1]; e++)
                if (parent[nbr[e]] == comm)
                    cross[v] += w[e];
            connected[v] = well_connected(cross[v], k[v], k_total, gamma, two_m);
        }
        for (idx t = start; t < end; t++) {
            idx v = order[t], target = -1;
            if (ref_size[v] != 1 || !connected[v])
                continue;
            idx found = gather(ptr, nbr, w, ref_labels, parent, comm, v, w_to, seen, cands);
            double best_gain = tol, w_target = 0.0;
            for (idx f = 0; f < found; f++) {
                idx c = cands[f];
                double gain = w_to[c] - gamma * k[v] * ref_degree[c] / two_m;
                if (connected[c] &&
                    (gain > best_gain || (gain == best_gain && target >= 0 && c < target))) {
                    best_gain = gain;
                    target = c;
                    w_target = w_to[c];
                }
                w_to[c] = 0.0;
                seen[c] = 0;
            }
            if (target >= 0) {
                ref_degree[target] += k[v];
                cross[target] += cross[v] - 2.0 * w_target;
                connected[target] = well_connected(cross[target], ref_degree[target], k_total,
                                                   gamma, two_m);
                ref_size[target]++;
                ref_size[v] = 0;
                ref_labels[v] = target;
            }
        }
    }
    idx count = compact(n, ref_labels, first);
    scratch_free(&s);
    return count;
}

/* Stable counting sort of the items from[0..items) by key[item], which
 * lies in 0..keys-1, into to; count is keys + 1 ids of scratch. */
static void sort_by(const idx *key, idx keys, const idx *from, idx *to, idx items,
                    idx *count) {
    for (idx c = 0; c <= keys; c++)
        count[c] = 0;
    for (idx x = 0; x < items; x++)
        count[key[from[x]] + 1]++;
    for (idx c = 1; c < keys; c++)
        count[c] += count[c - 1];
    for (idx x = 0; x < items; x++)
        to[count[key[from[x]]]++] = from[x];
}

/* Collapses community c of labels (0..C-1, none empty) into node c of a
 * graph of C nodes, from the pair-edge stream (heads, tails, weights) of
 * `edges` entries. Node c's self-loop sums its members' old self-loops in
 * node order, then its inside edges in stream order. The cross pairs
 * (lo, hi) are ordered by a stable counting sort by hi, then by lo, and
 * each sums its edges from 0.0 in stream order. The finished CSR lists
 * each row's pairs in that order; indices and csr_w have room for twice
 * `edges` entries. Returns the pair count. */
idx aggregate_graph(idx n, idx communities, idx edges, const idx *labels,
                    const double *self_loops, const idx *heads, const idx *tails,
                    const double *weights, double *loops, idx *ptr, idx *indices,
                    double *csr_w) {
    scratch s;
    if (!scratch_alloc(&s, edges + communities, 1, 7, 0)) {
        scratch_free(&s);
        return -1;
    }
    /* Per cross edge in stream order: its ends' labels and its stream index;
     * per pair: its ends and summed weight. */
    idx *low = s.id, *high = low + edges, *edge = high + edges;
    idx *order = edge + edges, *by_high = order + edges, *lo = by_high + edges;
    idx *hi = lo + edges, *count = hi + edges;
    double *pair_w = s.real;
    idx crossing = 0, pairs = 0;
    for (idx c = 0; c < communities; c++)
        loops[c] = 0.0;
    for (idx i = 0; i < n; i++)
        loops[labels[i]] += self_loops[i];
    for (idx e = 0; e < edges; e++) {
        idx a = labels[heads[e]], b = labels[tails[e]];
        if (a == b) {
            loops[a] += weights[e];
            continue;
        }
        low[crossing] = a < b ? a : b;
        high[crossing] = a < b ? b : a;
        order[crossing] = crossing;
        edge[crossing++] = e;
    }
    sort_by(high, communities, order, by_high, crossing, count);
    sort_by(low, communities, by_high, order, crossing, count);
    for (idx t = 0; t < crossing; t++) {
        idx x = order[t];
        if (!pairs || lo[pairs - 1] != low[x] || hi[pairs - 1] != high[x]) {
            lo[pairs] = low[x];
            hi[pairs] = high[x];
            pair_w[pairs++] = 0.0;
        }
        pair_w[pairs - 1] += weights[edge[x]];
    }

    /* Row r's entries start at ptr[r]; count[r] is its next free slot. */
    for (idx c = 0; c <= communities; c++)
        ptr[c] = 0;
    for (idx p = 0; p < pairs; p++) {
        ptr[lo[p] + 1]++;
        ptr[hi[p] + 1]++;
    }
    for (idx c = 0; c < communities; c++) {
        ptr[c + 1] += ptr[c];
        count[c] = ptr[c];
    }
    for (idx p = 0; p < pairs; p++) {
        indices[count[lo[p]]] = hi[p];
        csr_w[count[lo[p]]++] = pair_w[p];
        indices[count[hi[p]]] = lo[p];
        csr_w[count[hi[p]]++] = pair_w[p];
    }
    scratch_free(&s);
    return pairs;
}

/* Lays out the CSR rows of a graph of n nodes from `entries` pair edges
 * (heads, tails, weights), whose ends lie below n and differ. Each distinct
 * pair keeps its first position and the largest weight it was given, a
 * later equal weight winning (so 0.0 then -0.0 keeps -0.0); every row lists
 * its pairs by first position. The entries are bucketed by low end with a
 * stable counting sort and each bucket is deduplicated through slot[high
 * end], a pair id that counts only if it is at least the bucket's first.
 * Weights are moved and compared, never summed. indices and csr_w have room
 * for twice `entries` entries. Returns the pair count. */
idx build_graph(idx n, idx entries, const idx *heads, const idx *tails, const double *weights,
                idx *ptr, idx *indices, double *csr_w) {
    scratch s;
    if (!scratch_alloc(&s, entries + n + 1, 1, 2, 1)) {
        scratch_free(&s);
        return -1;
    }
    /* count: bucket starts, later each row's next free slot; pair_of: the
     * pair of each entry; placed: whether a pair is in the rows yet. */
    idx *count = s.id, *slot = count + n + 1, *by_low = slot + n, *pair_of = by_low + entries;
    double *pair_w = s.real;
    uint8_t *placed = s.flag;
    idx pairs = 0;
    for (idx e = 0; e < entries; e++)
        count[(heads[e] < tails[e] ? heads[e] : tails[e]) + 1]++;
    for (idx v = 1; v < n; v++)
        count[v] += count[v - 1];
    for (idx e = 0; e < entries; e++)
        by_low[count[heads[e] < tails[e] ? heads[e] : tails[e]]++] = e;

    for (idx v = 0; v <= n; v++)
        ptr[v] = 0;
    for (idx v = 0; v < n; v++)
        slot[v] = -1;
    for (idx t = 0, low = -1, bucket_first = 0; t < entries; t++) {
        idx e = by_low[t], a = heads[e], b = tails[e];
        idx lo = a < b ? a : b, hi = a < b ? b : a, p = slot[hi];
        if (lo != low) {
            low = lo;
            bucket_first = pairs;
        }
        if (p < bucket_first) {
            p = slot[hi] = pairs++;
            pair_w[p] = weights[e];
            ptr[lo + 1]++;
            ptr[hi + 1]++;
        } else if (!(pair_w[p] > weights[e])) {
            pair_w[p] = weights[e];
        }
        pair_of[e] = p;
    }

    for (idx v = 0; v < n; v++) {
        ptr[v + 1] += ptr[v];
        count[v] = ptr[v];
    }
    for (idx e = 0; e < entries; e++) {
        idx p = pair_of[e], a = heads[e], b = tails[e];
        if (placed[p])
            continue;
        placed[p] = 1;
        indices[count[a]] = b;
        csr_w[count[a]++] = pair_w[p];
        indices[count[b]] = a;
        csr_w[count[b]++] = pair_w[p];
    }
    scratch_free(&s);
    return pairs;
}
