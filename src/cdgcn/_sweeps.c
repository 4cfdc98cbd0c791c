/* The compiled kernels: build_graph, which lays out the CSR rows of every
 * SpeakerGraph (cdgcn/graphs.py), complete_graph, which lays out the rows of
 * the complete cosine graph directly, and seal_graph, which derives a
 * graph's degrees and edge stream from its rows; and Leiden's per-level
 * phases (cdgcn/leiden.py), one call each per level: the sequential sweeps
 * local_move and refine_partition, and aggregate_graph; and community_sums
 * for its quality function. Each kernel that needs scratch allocates and
 * frees its own, and returns -1, before writing any output, if it cannot.
 * Each Leiden kernel checks the labels it is given in its first pass over
 * them, and returns BAD_LABEL or EMPTY_COMMUNITY before writing any output.
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
 * is contracted or reassociated. The graph is symmetric CSR (ptr, nbr, w)
 * without diagonal, k its weighted degrees; ids are below n. */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t idx;

/* What a Leiden kernel returns for labels it cannot take (-1: no scratch). */
enum { BAD_LABEL = -2, EMPTY_COMMUNITY = -3 };

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
 * in ties), of largest gain above tol. labels must lie in 0..fresh-1 with
 * no community empty; a fresh singleton takes the smallest id emptied
 * since, else fresh. The queue holds all n nodes in the order
 * np.random.default_rng(seed).permutation(n) gives and serves as a ring
 * buffer, with a flag barring duplicates. A moved node's neighbours outside
 * its new community are queued in row order. labels are updated in place,
 * then compacted. A graph of total weight 0 (two_m = 0) moves no node. */
idx local_move(idx n, const idx *ptr, const idx *nbr, const double *w, const double *k,
               double gamma, double two_m, double tol, idx fresh, idx *labels, uint32_t seed) {
    scratch s;
    if (!scratch_alloc(&s, n, 2, 4, 2)) {
        scratch_free(&s);
        return -1;
    }
    double *running = s.real, *w_to = s.real + n;   /* K_c as nodes move */
    idx *comm_size = s.id, *touched = s.id + n, *first = s.id + 2 * n, *queue = s.id + 3 * n;
    uint8_t *in_queue = s.flag, *seen = s.flag + n;
    idx status = check_labels(n, labels, fresh, comm_size);
    if (status) {
        scratch_free(&s);
        return status;
    }
    for (idx i = 0; i < n; i++) {
        running[labels[i]] += k[i];
        in_queue[i] = 1;
        queue[i] = i;
    }
    generator g;
    seed_generator(&g, seed);
    idx waiting = two_m == 0.0 ? 0 : n;
    shuffle(&g, queue, waiting);

    idx head = 0, lowest = fresh;   /* no empty community below lowest */
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
 * 0 (two_m = 0) every node stays alone. */
idx refine_partition(idx n, const idx *ptr, const idx *nbr, const double *w, const double *k,
                     const idx *parent, double gamma, double two_m, double tol,
                     idx communities, uint32_t seed, idx *ref_labels) {
    scratch s;
    if (!scratch_alloc(&s, n, 4, 5, 2)) {
        scratch_free(&s);
        return -1;
    }
    double *ref_degree = s.real, *cross = s.real + n, *w_to = s.real + 2 * n;
    double *parent_degree = s.real + 3 * n;
    idx *ref_size = s.id, *cands = s.id + n, *first = s.id + 2 * n, *order = s.id + 3 * n;
    idx *end = s.id + 4 * n;   /* communities + 1 entries; end[c + 1] counts c first */
    uint8_t *connected = s.flag, *seen = s.flag + n;
    idx status = check_labels(n, parent, communities, end + 1);
    if (status) {
        scratch_free(&s);
        return status;
    }
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

    generator g;
    seed_generator(&g, seed);
    for (idx comm = 0, start = 0; comm < communities && two_m != 0.0; start = end[comm++]) {
        double k_total = parent_degree[comm];
        if (end[comm] - start < 2)
            continue;
        shuffle(&g, order + start, end[comm] - start);
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

/* A graph's derived arrays from its rows and self-loops: each node's
 * weighted degree k, twice its self-loop plus its row summed from 0.0 in
 * row order, and the stream (heads, tails, weights) of its pair edges with
 * head < tail, in row order, which has room for half the row entries. */
void seal_graph(idx n, const idx *ptr, const idx *nbr, const double *w, double *k,
                const double *self_loops, idx *heads, idx *tails, double *weights) {
    for (idx i = 0, out = 0; i < n; i++) {
        double row = 0.0;
        for (idx e = ptr[i]; e < ptr[i + 1]; e++) {
            row += w[e];
            if (nbr[e] > i) {
                heads[out] = i;
                tails[out] = nbr[e];
                weights[out++] = w[e];
            }
        }
        k[i] = 2.0 * self_loops[i] + row;
    }
}

/* The slot of pair (lo, hi) in a table of mask + 1 slots: a splitmix64 mix. */
static uint64_t pair_hash(idx lo, idx hi, uint64_t mask) {
    uint64_t z = (uint64_t)lo * 0x9E3779B97F4A7C15u + (uint64_t)hi;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return (z ^ (z >> 31)) & mask;
}

/* Collapses community c of labels (0..C-1, none empty) into node c of a
 * graph of C nodes, from the pair-edge stream (heads, tails, weights) of
 * `edges` entries. Node c's self-loop sums its members' old self-loops in
 * node order, then its inside edges in stream order. Each cross pair
 * (lo, hi) takes a slot of an open-addressing table the first time one of
 * its edges is seen and sums its edges from 0.0 in stream order; the table
 * holds min(edges, C(C-1)/2) pairs, a bound known before the one pass over
 * the stream, at load at most one half. The distinct pairs are ordered by
 * a stable counting sort by hi, then by lo, and build_graph lays out the
 * rows, each listing its pairs in that order. indices and csr_w have room
 * for twice `edges` entries. Returns the pair count. */
idx aggregate_graph(idx n, idx communities, idx edges, const idx *labels,
                    const double *self_loops, const idx *heads, const idx *tails,
                    const double *weights, double *loops, idx *ptr, idx *indices,
                    double *csr_w) {
    if (edges > PTRDIFF_MAX / 64)   /* no stream this long fits in memory */
        return -1;
    idx most = communities < (idx)1 << 31 ? communities * (communities - 1) / 2 : edges;
    idx pairs = 0, size = 1;
    most = most < edges ? most : edges;
    while (size < 2 * most)
        size *= 2;
    /* t: per slot, its pair's id + 1 (0 while free), then the sort's counts;
     * s: per pair, its ends, summed weight and sort order, then its sorted
     * high end and weight (the sorted low ends go to by_high). */
    scratch t, s;
    int ok = scratch_alloc(&t, size + communities + 1, 0, 1, 0);
    if (!(scratch_alloc(&s, most, 2, 5, 0) && ok)) {
        scratch_free(&t);
        scratch_free(&s);
        return -1;
    }
    idx *table = t.id, *count = t.id + size, *lo = s.id, *hi = lo + most, *order = hi + most;
    idx *by_high = order + most, *sorted_hi = by_high + most;
    double *pair_w = s.real, *sorted_w = s.real + most;
    idx status = check_labels(n, labels, communities, count);
    if (status) {
        scratch_free(&t);
        scratch_free(&s);
        return status;
    }
    for (idx c = 0; c < communities; c++)
        loops[c] = 0.0;
    for (idx i = 0; i < n; i++)
        loops[labels[i]] += self_loops[i];
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
    sort_by(hi, communities, order, by_high, pairs, count);
    sort_by(lo, communities, by_high, order, pairs, count);
    for (idx x = 0; x < pairs; x++) {
        by_high[x] = lo[order[x]];
        sorted_hi[x] = hi[order[x]];
        sorted_w[x] = pair_w[order[x]];
    }
    idx built = build_graph(communities, pairs, by_high, sorted_hi, sorted_w, ptr, indices, csr_w);
    scratch_free(&t);
    scratch_free(&s);
    return built;
}

/* The sums of the quality function for labels (0..C-1, none empty), each
 * from 0.0 in input order as np.bincount sums them, into the rows of sums
 * (3 x C): per community, the weights of its inside stream edges in stream
 * order, then its members' self-loops and their weighted degrees k in node
 * order. Returns C. */
idx community_sums(idx n, idx communities, idx edges, const idx *labels,
                   const double *self_loops, const double *k, const idx *heads,
                   const idx *tails, const double *weights, double *sums) {
    scratch s;
    if (!scratch_alloc(&s, communities < n ? communities : n, 0, 1, 0)) {
        scratch_free(&s);
        return -1;
    }
    idx status = check_labels(n, labels, communities, s.id);
    scratch_free(&s);
    if (status)
        return status;
    double *inside = sums, *loop = sums + communities, *degree = loop + communities;
    for (idx c = 0; c < 3 * communities; c++)
        sums[c] = 0.0;
    for (idx e = 0; e < edges; e++)
        if (labels[heads[e]] == labels[tails[e]])
            inside[labels[heads[e]]] += weights[e];
    for (idx i = 0; i < n; i++) {
        loop[labels[i]] += self_loops[i];
        degree[labels[i]] += k[i];
    }
    return communities;
}
