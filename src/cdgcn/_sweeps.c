/* The compiled kernels: build_graph, which lays out the CSR rows of every
 * SpeakerGraph (cdgcn/graphs.py), complete_graph, which lays out the rows of
 * the complete cosine graph directly, and seal_graph, which derives a
 * graph's degrees, edge stream and total weight from its rows; and Leiden's
 * phases (cdgcn/leiden.py): the sequential sweeps local_move and
 * refine_partition, and aggregate_graph, one call per phase; climb, which
 * runs them level after level in one call, on aggregates that never leave
 * C; and quality, the quality function, from the sums community_sums
 * gives. Each kernel that needs scratch allocates and frees its own, once
 * per call, and returns -1, before writing any output, if it cannot. The
 * scratch is not cleared on allocation: each phase clears what it reads,
 * as it starts. Each Leiden kernel checks the labels it is given in its
 * first pass over them, and returns BAD_LABEL or EMPTY_COMMUNITY before
 * writing any output.
 *
 * The sweeps draw their visit orders from numpy's generator, reproduced
 * here: np.random.default_rng(seed) for a seed below 2**32 and its shuffle,
 * draw for draw. They are bit-exact with the per-node loops the tests keep
 * as oracles: nodes are visited in that order, a node's weight into each
 * neighbouring community is summed from 0.0 in CSR row order, every gain
 * keeps the Python operand order, and the choice is the smallest label
 * among the maximal gains, as a strict scan in ascending label order
 * picks. Each sweep sums the K_c it starts from out of its labels, from
 * 0.0 in node order as np.bincount(labels, weights=k) does, and ends by
 * compacting its labels by first appearance, returning the community count.
 * The other kernels are bit-exact with the numpy code the tests keep as
 * their oracles. Built with -ffp-contract=off and no fast-math, so nothing
 * is contracted or reassociated. Every kernel that reads a graph takes it as
 * one `graph *`, whose layout cdgcn/graphs.py mirrors as `SpeakerGraph`. */
#include <stddef.h>
#include <stdint.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t idx;

/* A graph of n nodes: symmetric CSR rows (ptr, nbr, w) without diagonal,
 * ids below n; its weighted degrees k and self-loops; the stream (heads,
 * tails, weights) of its `edges` pair edges with head < tail, in row order;
 * and its total weight m. seal_graph derives k, the stream and m from the
 * rows and self-loops. The sweeps read 2m as 2.0 * m. */
typedef struct {
    idx n, edges;
    idx *ptr, *nbr;
    double *w, *k, *loops;
    idx *heads, *tails;
    double *weights;
    double m;
} graph;

/* What a Leiden kernel returns for labels it cannot take (-1: no scratch),
 * and climb for an aggregate whose total weight is not finite. */
enum { BAD_LABEL = -2, EMPTY_COMMUNITY = -3, NON_FINITE_WEIGHT = -4 };

/* Per-node scratch: reals doubles, ids ids and flags bytes for each of n
 * nodes, one block per type (never empty, so an empty graph gets one),
 * left uninitialised: each kernel clears what it reads before writing it.
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
    s->real = malloc((size_t)(n * reals + 1) * sizeof *s->real);
    s->id = malloc((size_t)(n * ids + 1) * sizeof *s->id);
    s->flag = malloc((size_t)(n * flags + 1) * sizeof *s->flag);
    return s->real && s->id && s->flag;
}

static void scratch_free(scratch *s) {
    free(s->real);
    free(s->id);
    free(s->flag);
}

/* Sets count entries of array to zero (0.0 for doubles). */
#define CLEAR(array, count) memset(array, 0, (size_t)(count) * sizeof *(array))

/* 0 if the n labels lie in 0..communities-1 and none of those is empty,
 * else BAD_LABEL or EMPTY_COMMUNITY. Counts each community's members into
 * size (zeroed, communities entries), used only if communities <= n: n
 * labels fill no more. */
static idx check_labels(idx n, const idx *labels, idx communities, idx *size) {
    for (idx i = 0; i < n; i++) {
        if (labels[i] < 0 || labels[i] >= communities)
            return BAD_LABEL;
        if (communities <= n)
            size[labels[i]]++;
    }
    if (communities > n)
        return EMPTY_COMMUNITY;
    for (idx c = 0; c < communities; c++)
        if (!size[c])
            return EMPTY_COMMUNITY;
    return 0;
}

/* numpy's PCG64 generator as np.random.default_rng(seed) seeds it from one
 * 32-bit word, through SeedSequence's hash of a 4-word pool, and as its
 * shuffle draws from it: 32-bit draws are the low, then the high half of
 * one 64-bit output. */
__extension__ typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
    uint32_t held;   /* the high half of the last output, */
    int holding;     /* if not handed out yet */
} generator;

static uint32_t hashmix(uint32_t value, uint32_t *hash) {
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y) {
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

static void step(generator *g) {
    g->state = g->state * ((u128)UINT64_C(0x2360ED051FC65DA4) << 64
                           | UINT64_C(0x4385DF649FCCF645)) + g->inc;
}

/* The next output: one step, then XSL-RR. */
static uint64_t next64(generator *g) {
    step(g);
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return x >> rot | x << ((64u - rot) & 63u);
}

static uint32_t next32(generator *g) {
    if (g->holding) {
        g->holding = 0;
        return g->held;
    }
    uint64_t x = next64(g);
    g->held = (uint32_t)(x >> 32);
    g->holding = 1;
    return (uint32_t)x;
}

static void seed_generator(generator *g, uint32_t seed) {
    uint32_t pool[4], hash = 0x43b0d7e5u, words[8];
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i ? 0 : seed, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    hash = 0x8b51f9ddu;   /* generate_state(4, np.uint64) */
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash;
        hash *= 0x58f38dedu;
        value *= hash;
        words[i] = value ^ value >> 16;
    }
    u128 state[2];   /* the initial state, then the stream: high word first */
    for (int i = 0; i < 2; i++)
        state[i] = (u128)(words[4 * i] | (uint64_t)words[4 * i + 1] << 32) << 64
                   | (words[4 * i + 2] | (uint64_t)words[4 * i + 3] << 32);
    g->state = 0;
    g->inc = state[1] << 1 | 1;
    step(g);
    g->state += state[0];
    step(g);
    g->holding = 0;
}

/* Generator.shuffle of items[0..count): Fisher-Yates from the last index
 * down, each index drawn by mask rejection as random_interval draws it. */
static void shuffle(generator *g, idx *items, idx count) {
    for (idx i = count - 1; i > 0; i--) {
        uint64_t top = (uint64_t)i, mask = top, j;
        for (int shift = 1; shift < 64; shift *= 2)
            mask |= mask >> shift;
        do
            j = (top <= UINT32_MAX ? next32(g) : next64(g)) & mask;
        while (j > top);
        idx swapped = items[i];
        items[i] = items[j];
        items[j] = swapped;
    }
}

/* np.random.default_rng(seed).permutation(n), into out. */
void permutation(idx n, uint32_t seed, idx *out) {
    generator g;
    seed_generator(&g, seed);
    for (idx i = 0; i < n; i++)
        out[i] = i;
    shuffle(&g, out, n);
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
static idx gather(const graph *g, const idx *labels, const idx *parent, idx comm, idx v,
                  double *w_to, uint8_t *seen, idx *touched) {
    const idx *nbr = g->nbr;
    const double *w = g->w;
    idx found = 0;
    for (idx e = g->ptr[v]; e < g->ptr[v + 1]; e++) {
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
 * in ties), of largest gain above tol. labels must lie in 0..fresh-1 with
 * no community empty; a fresh singleton takes the smallest id emptied
 * since, else fresh. The queue holds all n nodes in the order
 * np.random.default_rng(seed).permutation(n) gives and serves as a ring
 * buffer, with a flag barring duplicates. A moved node's neighbours outside
 * its new community are queued in row order. labels are updated in place,
 * then compacted. A graph of total weight 0 moves no node. Scratch: 2
 * reals, 4 ids and 2 flags per node. */
static idx move_nodes(const graph *g, double gamma, double tol, idx fresh, idx *labels,
                      uint32_t seed, const scratch *s) {
    idx n = g->n;
    const idx *ptr = g->ptr, *nbr = g->nbr;
    const double *k = g->k, two_m = 2.0 * g->m;
    double *running = s->real, *w_to = s->real + n;   /* K_c as nodes move */
    idx *comm_size = s->id, *touched = s->id + n, *first = s->id + 2 * n;
    idx *queue = s->id + 3 * n;
    uint8_t *in_queue = s->flag, *seen = s->flag + n;
    CLEAR(running, 2 * n);   /* and w_to */
    CLEAR(comm_size, n);
    CLEAR(seen, n);
    idx status = check_labels(n, labels, fresh, comm_size);
    if (status)
        return status;
    for (idx i = 0; i < n; i++) {
        running[labels[i]] += k[i];
        in_queue[i] = 1;
        queue[i] = i;
    }
    generator draws;
    seed_generator(&draws, seed);
    idx waiting = two_m == 0.0 ? 0 : n;
    shuffle(&draws, queue, waiting);

    idx head = 0, lowest = fresh;   /* no empty community below lowest */
    while (waiting-- > 0) {
        idx i = queue[head], a = labels[i], best = -2;   /* -2: none, -1: fresh */
        head = (head + 1) % n;
        in_queue[i] = 0;
        idx found = gather(g, labels, NULL, 0, i, w_to, seen, touched);
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
    return compact(n, labels, first);
}

idx local_move(const graph *g, double gamma, double tol, idx fresh, idx *labels, uint32_t seed) {
    scratch s;
    idx count = scratch_alloc(&s, g->n, 2, 4, 2)
        ? move_nodes(g, gamma, tol, fresh, labels, seed, &s) : -1;
    scratch_free(&s);
    return count;
}

static uint8_t well_connected(double cross, double degree, double k_total, double gamma,
                              double two_m) {
    return cross >= gamma * degree * (k_total - degree) / two_m ? 1 : 0;
}

/* Refines the parent communities (labels in parent, 0..communities-1,
 * none empty) in label order, starting from singletons. Each parent's
 * members are listed in node order by a stable counting sort, and those of
 * each parent of two or more members are shuffled, in label order, from one
 * np.random.default_rng(seed), as Generator.permutation shuffles them. The
 * members' cross (weight to the rest of the parent c) and connected are set
 * first; then each member in that order, if still alone and well
 * connected, joins the well-connected part of c with largest gain above
 * tol. Per-part state is indexed by the part's founding node. The parts are
 * written to ref_labels (n entries), compacted. On a graph of total weight
 * 0 every node stays alone. Scratch: 4 reals, 5 ids and 2 flags per node. */
static idx refine_parts(const graph *g, const idx *parent, double gamma, double tol,
                        idx communities, uint32_t seed, idx *ref_labels, const scratch *s) {
    idx n = g->n;
    const idx *ptr = g->ptr, *nbr = g->nbr;
    const double *w = g->w, *k = g->k, two_m = 2.0 * g->m;
    double *ref_degree = s->real, *cross = s->real + n, *w_to = s->real + 2 * n;
    double *parent_degree = s->real + 3 * n;
    idx *ref_size = s->id, *cands = s->id + n, *first = s->id + 2 * n, *order = s->id + 3 * n;
    idx *end = s->id + 4 * n;   /* communities + 1 entries; end[c + 1] counts c first */
    uint8_t *connected = s->flag, *seen = s->flag + n;
    CLEAR(cross, 3 * n);   /* and w_to, parent_degree */
    CLEAR(end, n + 1);
    CLEAR(seen, n);
    idx status = check_labels(n, parent, communities, end + 1);
    if (status)
        return status;
    for (idx i = 0; i < n; i++) {
        ref_labels[i] = i;
        ref_size[i] = 1;
        ref_degree[i] = k[i];
        parent_degree[parent[i]] += k[i];
    }
    for (idx c = 1; c <= communities; c++)
        end[c] += end[c - 1];
    for (idx i = 0; i < n; i++)   /* end[c] moves from c's first slot to its last + 1 */
        order[end[parent[i]]++] = i;

    generator draws;
    seed_generator(&draws, seed);
    for (idx comm = 0, start = 0; comm < communities && two_m != 0.0; start = end[comm++]) {
        double k_total = parent_degree[comm];
        if (end[comm] - start < 2)
            continue;
        shuffle(&draws, order + start, end[comm] - start);
        for (idx t = start; t < end[comm]; t++) {
            idx v = order[t];
            for (idx e = ptr[v]; e < ptr[v + 1]; e++)
                if (parent[nbr[e]] == comm)
                    cross[v] += w[e];
            connected[v] = well_connected(cross[v], k[v], k_total, gamma, two_m);
        }
        for (idx t = start; t < end[comm]; t++) {
            idx v = order[t], target = -1;
            if (ref_size[v] != 1 || !connected[v])
                continue;
            idx found = gather(g, ref_labels, parent, comm, v, w_to, seen, cands);
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
    return compact(n, ref_labels, first);
}

idx refine_partition(const graph *g, const idx *parent, double gamma, double tol,
                     idx communities, uint32_t seed, idx *ref_labels) {
    scratch s;
    idx count = scratch_alloc(&s, g->n, 4, 5, 2)
        ? refine_parts(g, parent, gamma, tol, communities, seed, ref_labels, &s) : -1;
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
    CLEAR(count, n + 1);
    CLEAR(placed, entries);
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

/* The weight of pair lo < hi in the complete graph of the (n, n) affinity
 * aff: aff[hi, lo], entered later, if it is >= aff[lo, hi]. */
static double pair_weight(const double *aff, idx n, idx lo, idx hi) {
    double later = aff[hi * n + lo], earlier = aff[lo * n + hi];
    return later >= earlier ? later : earlier;
}

/* Sorts ids[0..count) by descending key[id], keeping ties in their order,
 * by a bottom-up merge sort that merges back and forth between ids and
 * spare (count ids each). Returns the one that holds the result. */
static idx *sort_descending(const double *key, idx *ids, idx *spare, idx count) {
    for (idx width = 1; width < count; width *= 2) {
        for (idx lo = 0; lo < count; lo += 2 * width) {
            idx mid = lo + width < count ? lo + width : count;
            idx hi = mid + width < count ? mid + width : count, a = lo, b = mid, t = lo;
            while (a < mid && b < hi)
                spare[t++] = key[ids[b]] > key[ids[a]] ? ids[b++] : ids[a++];
            while (a < mid)
                spare[t++] = ids[a++];
            while (b < hi)
                spare[t++] = ids[b++];
        }
        idx *merged = spare;
        spare = ids;
        ids = merged;
    }
    return ids;
}

/* Lays out the rows of knn_graph at k >= n - 1 from the (n, n) affinity,
 * whose diagonal is never read: row i lists 0..i-1 in id order (each was
 * entered by an earlier row), then j > i by descending aff[i, j], ties to
 * the lower id. indices and csr_w have room for n(n - 1) entries. Returns
 * the pair count. */
idx complete_graph(idx n, const double *aff, idx *ptr, idx *indices, double *csr_w) {
    scratch s;
    if (!scratch_alloc(&s, n, 0, 2, 0)) {
        scratch_free(&s);
        return -1;
    }
    for (idx i = 0; i <= n; i++)
        ptr[i] = i * (n - 1);
    for (idx i = 0; i < n; i++) {
        idx *row = indices + ptr[i], count = n - 1 - i;
        for (idx j = 0; j < i; j++) {
            row[j] = j;
            csr_w[ptr[i] + j] = pair_weight(aff, n, j, i);
        }
        for (idx t = 0; t < count; t++)
            s.id[t] = i + 1 + t;
        idx *sorted = sort_descending(aff + i * n, s.id, s.id + n, count);
        for (idx t = 0; t < count; t++) {
            row[i + t] = sorted[t];
            csr_w[ptr[i] + i + t] = pair_weight(aff, n, i, sorted[t]);
        }
    }
    scratch_free(&s);
    return n * (n - 1) / 2;
}

/* numpy's pairwise sum of x[0..count), the order np.sum adds a contiguous
 * float64 array in: below 8 entries one by one from 0.0; up to 128 entries
 * in 8 accumulators, added as a tree, then the rest one by one; above that,
 * the halves summed apart, split at a multiple of 8. */
static double pairwise_sum(const double *x, idx count) {
    if (count < 8) {
        double sum = 0.0;
        for (idx i = 0; i < count; i++)
            sum += x[i];
        return sum;
    }
    if (count <= 128) {
        double r[8];
        idx i = 8;
        for (int j = 0; j < 8; j++)
            r[j] = x[j];
        for (; i < count - count % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += x[i + j];
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < count; i++)
            sum += x[i];
        return sum;
    }
    idx half = count / 2;
    half -= half % 8;
    return pairwise_sum(x, half) + pairwise_sum(x + half, count - half);
}

/* Fills g's derived fields from its rows and self-loops: each node's
 * weighted degree k, twice its self-loop plus its row summed from 0.0 in
 * row order; the stream and its length `edges`, which has room for half the
 * row entries; and m, bit for bit as np.cumsum(stream weights)[-1] (0.0 for
 * an empty stream) + np.sum(self-loops) gives it: the stream's weights
 * summed from 0.0 in stream order, plus the self-loops' pairwise sum. A sum
 * from 0.0 is never -0.0, so starting there rather than at the first
 * weight, and leaving out the 0.0 that np.sum adds to its pairwise sum,
 * change at most the sign of a zero term, which the last addition does not
 * show. */
void seal_graph(graph *g) {
    const idx *ptr = g->ptr, *nbr = g->nbr;
    const double *w = g->w;
    double pair = 0.0;
    idx out = 0;
    for (idx i = 0; i < g->n; i++) {
        double row = 0.0;
        for (idx e = ptr[i]; e < ptr[i + 1]; e++) {
            row += w[e];
            if (nbr[e] > i) {
                g->heads[out] = i;
                g->tails[out] = nbr[e];
                g->weights[out++] = w[e];
                pair += w[e];
            }
        }
        g->k[i] = 2.0 * g->loops[i] + row;
    }
    g->edges = out;
    g->m = pair + pairwise_sum(g->loops, g->n);
}

/* The slot of pair (lo, hi) in a table of mask + 1 slots: a splitmix64 mix. */
static uint64_t pair_hash(idx lo, idx hi, uint64_t mask) {
    uint64_t z = (uint64_t)lo * 0x9E3779B97F4A7C15u + (uint64_t)hi;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return (z ^ (z >> 31)) & mask;
}

/* The distinct pairs `edges` stream entries can give between communities
 * of C: at most min(edges, C(C-1)/2). */
static idx most_pairs(idx communities, idx edges) {
    idx most = communities < (idx)1 << 31 ? communities * (communities - 1) / 2 : edges;
    return most < edges ? most : edges;
}

/* The slots of a table for up to `most` pairs: a power of two, at load at
 * most one half. */
static idx table_size(idx most) {
    idx size = 1;
    while (size < 2 * most)
        size *= 2;
    return size;
}

/* Aggregation's scratch for up to `nodes` communities and `most` pairs:
 * table, one id per slot and nodes + 1 counts; pair, per pair its summed
 * weight and 4 ids. Neither is cleared here. */
typedef struct {
    scratch table, pair;
} pair_scratch;

static int pair_scratch_alloc(pair_scratch *s, idx nodes, idx most) {
    int ok = scratch_alloc(&s->table, table_size(most) + nodes + 1, 0, 1, 0);
    return scratch_alloc(&s->pair, most, 1, 4, 0) && ok;
}

static void pair_scratch_free(pair_scratch *s) {
    scratch_free(&s->table);
    scratch_free(&s->pair);
}

/* Collapses community c of labels (0..C-1, none empty) into node c of a
 * graph of C nodes, from g's self-loops and pair-edge stream, into the
 * self-loops loops and the rows (ptr, indices, csr_w). Node c's self-loop
 * sums its members' old self-loops in node order, then its inside edges in
 * stream order. Each cross pair (lo, hi) takes a slot of an open-addressing
 * table the first time one of its edges is seen and sums its edges from 0.0
 * in stream order; the table holds most_pairs(C, edges), a bound known
 * before the one pass over the stream, and only its slots and the counts
 * are cleared. The distinct pairs are ordered by a stable counting sort by
 * hi, then by lo, and each row lists its pairs in that order, as
 * build_graph lays out distinct pairs. indices and csr_w have room for
 * twice the pairs. Returns the pair count. */
static idx aggregate(const graph *g, idx communities, const idx *labels, double *loops,
                     idx *ptr, idx *indices, double *csr_w, const pair_scratch *s) {
    const idx *heads = g->heads, *tails = g->tails;
    const double *weights = g->weights;
    idx edges = g->edges, most = most_pairs(communities, edges), size = table_size(most);
    idx pairs = 0;
    /* table: per slot, its pair's id + 1 (0 while free); count: the sorts'
     * counts, then each row's next free entry; spare: the first sort's
     * result. */
    idx *table = s->table.id, *count = table + size;
    idx *lo = s->pair.id, *hi = lo + most, *order = hi + most, *spare = order + most;
    double *pair_w = s->pair.real;
    CLEAR(table, size);
    CLEAR(count, communities + 1);
    idx status = check_labels(g->n, labels, communities, count);
    if (status)
        return status;
    for (idx c = 0; c < communities; c++)
        loops[c] = 0.0;
    for (idx i = 0; i < g->n; i++)
        loops[labels[i]] += g->loops[i];
    for (idx e = 0; e < edges; e++) {
        idx a = labels[heads[e]], b = labels[tails[e]], l = a < b ? a : b, h = a < b ? b : a;
        if (a == b) {
            loops[a] += weights[e];
            continue;
        }
        uint64_t at = pair_hash(l, h, (uint64_t)size - 1);
        while (table[at] && (lo[table[at] - 1] != l || hi[table[at] - 1] != h))
            at = (at + 1) & ((uint64_t)size - 1);
        if (!table[at]) {
            lo[pairs] = l;
            hi[pairs] = h;
            pair_w[pairs] = 0.0;
            table[at] = ++pairs;
        }
        pair_w[table[at] - 1] += weights[e];
    }
    for (idx p = 0; p < pairs; p++)
        order[p] = p;
    sort_by(hi, communities, order, spare, pairs, count);
    sort_by(lo, communities, spare, order, pairs, count);
    CLEAR(ptr, communities + 1);
    for (idx p = 0; p < pairs; p++) {
        ptr[lo[p] + 1]++;
        ptr[hi[p] + 1]++;
    }
    for (idx c = 0; c < communities; c++) {
        ptr[c + 1] += ptr[c];
        count[c] = ptr[c];
    }
    for (idx x = 0; x < pairs; x++) {
        idx p = order[x];
        indices[count[lo[p]]] = hi[p];
        csr_w[count[lo[p]]++] = pair_w[p];
        indices[count[hi[p]]] = lo[p];
        csr_w[count[hi[p]]++] = pair_w[p];
    }
    return pairs;
}

idx aggregate_graph(const graph *g, idx communities, const idx *labels, double *loops,
                    idx *ptr, idx *indices, double *csr_w) {
    if (g->edges > PTRDIFF_MAX / 64)   /* no stream this long fits in memory */
        return -1;
    pair_scratch s;
    idx pairs = pair_scratch_alloc(&s, communities, most_pairs(communities, g->edges))
        ? aggregate(g, communities, labels, loops, ptr, indices, csr_w, &s) : -1;
    pair_scratch_free(&s);
    return pairs;
}

/* Aggregates g by parts (0..C-1, none empty), sealed, into the room of b,
 * which holds (nodes + most + 1) * (3 reals, 4 ids) for C <= nodes and
 * most_pairs(C, g->edges) <= most; s has room for the same. */
static graph aggregate_level(const graph *g, idx communities, const idx *parts,
                             const scratch *b, const pair_scratch *s) {
    idx most = most_pairs(communities, g->edges);
    idx *ptr = b->id, *nbr = ptr + communities + 1, *heads = nbr + 2 * most;
    double *w = b->real, *k = w + 2 * most, *loops = k + communities;
    graph next = {communities, 0, ptr, nbr, w, k, loops, heads, heads + most,   /* tails, */
                  loops + communities, 0.0};   /* weights: the last of each block */
    aggregate(g, communities, parts, loops, ptr, nbr, w, s);
    seal_graph(&next);
    return next;
}

/* A bit generator's next 32-bit draw: numpy's next_uint32 on its state. */
typedef uint32_t (*draw32)(void *state);

/* climb's levels; nodes holds the sweeps' scratch (refine_partition's, the
 * larger) and three ids per node of g, the level-0 graph. The level graphs
 * and the pair table are allocated into graphs and table (NULL until then)
 * for the first aggregate, which bounds every later one. */
static idx climb_levels(graph g, double gamma, double tol, idx count, idx *labels,
                        draw32 next_uint32, void *state, const scratch *nodes,
                        scratch *graphs, pair_scratch *table) {
    idx n = g.n, *parts = nodes->id, *node_map = parts + n, *lifted = node_map + n;
    idx *moved = labels;   /* the level's moved labels */
    scratch sweep = {nodes->real, lifted + n, nodes->flag};
    for (idx i = 0; i < n; i++)
        node_map[i] = i;
    for (idx depth = 0;; depth++) {
        if (depth)
            count = move_nodes(&g, gamma, tol, count, moved, next_uint32(state), &sweep);
        idx refined = refine_parts(&g, moved, gamma, tol, count, next_uint32(state), parts,
                                   &sweep);
        if (refined < 0)
            return refined;
        if (refined == g.n)   /* aggregation would be the identity */
            break;
        if (!graphs[0].id) {
            idx most = most_pairs(refined, g.edges);
            if (!(scratch_alloc(&graphs[0], refined + most + 1, 3, 4, 0)
                  && scratch_alloc(&graphs[1], refined + most + 1, 3, 4, 0)
                  && pair_scratch_alloc(table, refined, most)))
                return -1;
        }
        graph next = aggregate_level(&g, refined, parts, &graphs[depth % 2], table);
        if (next.m < 0.0)   /* a near-zero m, summed anew, rounded below 0 */
            break;
        if (!isfinite(next.m))
            return NON_FINITE_WEIGHT;
        /* Each part inherits the community its members were moved to. Parts
         * are compact by first appearance, so parts[i] <= i, and lifting in
         * place overwrites only the entries already read. */
        for (idx i = 0; i < g.n; i++)
            lifted[parts[i]] = moved[i];
        for (idx i = 0; i < n; i++)
            node_map[i] = parts[node_map[i]];
        moved = lifted;
        g = next;
    }
    if (moved != labels)
        for (idx i = 0; i < n; i++)
            labels[i] = moved[node_map[i]];
    return count;
}

/* leiden's pass after level 0's local move, in one call: labels are that
 * move's labels (0..communities-1, none empty) of the graph g.
 * Each level refines its moved labels; unless that leaves every node alone,
 * aggregates the parts into the next level's graph, whose nodes start in
 * the community their members were moved to, and moves its nodes. The
 * climb stops when refinement leaves every node alone or an aggregate's m
 * rounds below 0, and returns NON_FINITE_WEIGHT for an aggregate whose m is
 * not finite. Each level draws its seeds by next_uint32(state), as
 * rng.integers(2**32) draws them: the move's, then the refinement's; level
 * 0 draws only the refinement's. Writes the flat labels of g's nodes, the
 * last level's moved labels, over labels and returns their count. */
idx climb(const graph *g, double gamma, double tol, idx communities, idx *labels,
          draw32 next_uint32, void *state) {
    scratch nodes, graphs[2] = {{NULL, NULL, NULL}, {NULL, NULL, NULL}};
    pair_scratch table = {{NULL, NULL, NULL}, {NULL, NULL, NULL}};
    idx count = scratch_alloc(&nodes, g->n, 4, 8, 2)
        ? climb_levels(*g, gamma, tol, communities, labels, next_uint32, state, &nodes, graphs,
                       &table) : -1;
    scratch_free(&nodes);
    scratch_free(&graphs[0]);
    scratch_free(&graphs[1]);
    pair_scratch_free(&table);
    return count;
}

/* The sums of the quality function for labels of g's nodes (0..C-1, none
 * empty), each from 0.0 in input order as np.bincount sums them, into the
 * rows of sums (3 x C): per community, the weights of its inside stream
 * edges in stream order, then its members' self-loops and their weighted
 * degrees k in node order. Returns C. */
idx community_sums(const graph *g, idx communities, const idx *labels, double *sums) {
    idx n = g->n;
    scratch s;
    if (!scratch_alloc(&s, communities < n ? communities : n, 0, 1, 0)) {
        scratch_free(&s);
        return -1;
    }
    CLEAR(s.id, communities < n ? communities : n);
    idx status = check_labels(n, labels, communities, s.id);
    scratch_free(&s);
    if (status)
        return status;
    double *inside = sums, *loop = sums + communities, *degree = loop + communities;
    for (idx c = 0; c < 3 * communities; c++)
        sums[c] = 0.0;
    for (idx e = 0; e < g->edges; e++)
        if (labels[g->heads[e]] == labels[g->tails[e]])
            inside[labels[g->heads[e]]] += g->weights[e];
    for (idx i = 0; i < n; i++) {
        loop[labels[i]] += g->loops[i];
        degree[labels[i]] += g->k[i];
    }
    return communities;
}

/* The quality Q of labels of g's nodes (0..C-1, none empty) into *q, bit for
 * bit as internal.sum() - gamma * np.sum(degree**2) / (4.0 * m) gives it
 * from community_sums' rows, internal being the inside weights plus the
 * self-loops: each sum numpy's pairwise sum after the 0.0 np.sum starts
 * from, and Q 0.0 at m = 0. Returns C. The sums get room for no more than
 * n communities: community_sums refuses more before writing any. */
idx quality(const graph *g, idx communities, const idx *labels, double gamma, double *q) {
    scratch s;
    idx status = scratch_alloc(&s, communities < g->n ? communities : g->n, 3, 0, 0)
        ? community_sums(g, communities, labels, s.real) : -1;
    if (status >= 0) {
        double *internal = s.real, *loop = internal + communities, *degree = loop + communities;
        for (idx c = 0; c < communities; c++) {
            internal[c] += loop[c];
            degree[c] *= degree[c];
        }
        *q = g->m == 0.0 ? 0.0 : (0.0 + pairwise_sum(internal, communities))
                                 - gamma * (0.0 + pairwise_sum(degree, communities)) / (4.0 * g->m);
    }
    scratch_free(&s);
    return status;
}
