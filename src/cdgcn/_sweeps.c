/* Leiden's three per-level phases (cdgcn/leiden.py), one call each per
 * level: the sequential sweeps local_move and refine_partition, and
 * aggregate_graph. Each kernel allocates and frees its own scratch and
 * returns -1, having written nothing, if it cannot.
 *
 * The sweeps are bit-exact with the per-node loops the tests keep as
 * oracles: nodes are visited in the given order, a node's weight into each
 * neighbouring community is summed from 0.0 in CSR row order, every gain
 * keeps the Python operand order, and the choice is the smallest label
 * among the maximal gains, as a strict scan in ascending label order
 * picks. Each sweep ends by compacting its labels by first appearance in
 * node order and summing every K_c from 0.0 in node order, as
 * np.bincount(labels, weights=k) does, and returns the community count.
 * Aggregation is bit-exact with the numpy code the tests keep as its
 * oracle. Built with -ffp-contract=off and no fast-math, so nothing is
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

/* Relabels labels (all below n) to 0..C-1 by first appearance and sums K_c
 * into comm_degree in node order; first is n ids of scratch. Returns C. */
static idx compact(idx n, const double *k, idx *labels, double *comm_degree, idx *first) {
    idx count = 0;
    for (idx i = 0; i < n; i++)
        first[i] = -1;
    for (idx i = 0; i < n; i++) {
        idx c = labels[i];
        if (first[c] < 0) {
            first[c] = count;
            comm_degree[count++] = 0.0;
        }
        labels[i] = first[c];
        comm_degree[labels[i]] += k[i];
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
 * non-empty, with K_c in comm_degree; a fresh singleton takes the smallest
 * id emptied since, else fresh. queue holds all n nodes in visit order and
 * serves as a ring buffer, with a flag barring duplicates. A moved node's
 * neighbours outside its new community are queued in row order. labels
 * are updated in place, then compacted with K_c in comm_degree (room for
 * n communities). */
idx local_move(idx n, const idx *ptr, const idx *nbr, const double *w, const double *k,
               double gamma, double two_m, double tol, idx fresh, idx *labels, idx *queue,
               double *comm_degree) {
    scratch s;
    if (!scratch_alloc(&s, n, 2, 3, 2)) {
        scratch_free(&s);
        return -1;
    }
    double *running = s.real, *w_to = s.real + n;   /* K_c as nodes move */
    idx *comm_size = s.id, *touched = s.id + n, *first = s.id + 2 * n;
    uint8_t *in_queue = s.flag, *seen = s.flag + n;
    for (idx c = 0; c < fresh; c++)
        running[c] = comm_degree[c];
    for (idx i = 0; i < n; i++) {
        comm_size[labels[i]]++;
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
    idx count = compact(n, k, labels, comm_degree, first);
    scratch_free(&s);
    return count;
}

static int well_connected(double cross, double degree, double k_total, double gamma,
                          double two_m) {
    return cross >= gamma * degree * (k_total - degree) / two_m;
}

/* Refines parent communities in turn, starting from singletons. order
 * lists `members` nodes in runs, one run per parent community c (total
 * degree parent_degree[c]) to refine. In each run the members' cross
 * (weight to the rest of c) and connected are set first; then each member
 * in order, if still alone and well connected, joins the well-connected
 * part of c with largest gain above tol. Per-part state is indexed by the
 * part's founding node. The parts are written to ref_labels, compacted
 * with K_c in comm_degree (n entries each). */
idx refine_partition(idx n, const idx *ptr, const idx *nbr, const double *w, const double *k,
                     const idx *parent, const double *parent_degree, double gamma,
                     double two_m, double tol, const idx *order, idx members, idx *ref_labels,
                     double *comm_degree) {
    scratch s;
    if (!scratch_alloc(&s, n, 3, 3, 2)) {
        scratch_free(&s);
        return -1;
    }
    double *ref_degree = s.real, *cross = s.real + n, *w_to = s.real + 2 * n;
    idx *ref_size = s.id, *cands = s.id + n, *first = s.id + 2 * n;
    uint8_t *connected = s.flag, *seen = s.flag + n;
    for (idx i = 0; i < n; i++) {
        ref_labels[i] = i;
        ref_size[i] = 1;
        ref_degree[i] = k[i];
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
    idx count = compact(n, k, ref_labels, comm_degree, first);
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
 * each row's pairs in that order; a degree is 2 * self-loop plus the row
 * summed in row order. lo, hi and pair_w have room for `edges` pairs,
 * indices and csr_w for twice that. Returns the pair count. */
idx aggregate_graph(idx n, idx communities, idx edges, const idx *labels,
                    const double *self_loops, const idx *heads, const idx *tails,
                    const double *weights, double *loops, idx *ptr, idx *lo, idx *hi,
                    double *pair_w, idx *indices, double *csr_w, double *degree) {
    scratch s;
    if (!scratch_alloc(&s, edges + communities, 0, 5, 0)) {
        scratch_free(&s);
        return -1;
    }
    /* Per cross edge in stream order: its ends' labels and its stream index. */
    idx *low = s.id, *high = low + edges, *edge = high + edges;
    idx *order = edge + edges, *by_high = order + edges, *count = by_high + edges;
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
    for (idx c = 0; c < communities; c++) {
        double row = 0.0;
        for (idx e = ptr[c]; e < ptr[c + 1]; e++)
            row += csr_w[e];
        degree[c] = 2.0 * loops[c] + row;
    }
    scratch_free(&s);
    return pairs;
}
