/* Leiden's two sequential sweeps (cdgcn/leiden.py), bit-exact with the
 * per-node loops the tests keep as oracles: nodes are visited in the given
 * order, a node's weight into each neighbouring community is summed from
 * 0.0 in CSR row order, every gain keeps the Python operand order, and the
 * choice is the smallest label among the maximal gains, as a strict scan
 * in ascending label order picks. Built with -ffp-contract=off and no
 * fast-math, so nothing is contracted or reassociated. The graph is
 * symmetric CSR (ptr, nbr, w) without diagonal, k its weighted degrees;
 * ids are below n; scratch w_to and seen are zero on entry and on return. */
#include <stdint.h>
#include <stdlib.h>

typedef int64_t idx;

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
 * fresh. queue holds all n nodes in visit order, all flagged in in_queue,
 * and is a ring buffer: in_queue bars duplicates. A moved node's
 * neighbours outside its new community are queued in row order. labels,
 * comm_degree (K_c) and comm_size are updated in place. */
void local_move(idx n, const idx *ptr, const idx *nbr, const double *w, const double *k,
                double gamma, double two_m, double tol, idx fresh,
                idx *labels, double *comm_degree, idx *comm_size, idx *queue,
                uint8_t *in_queue, double *w_to, uint8_t *seen, idx *touched) {
    idx head = 0, waiting = n, lowest = fresh;   /* no empty community below lowest */
    while (waiting-- > 0) {
        idx i = queue[head], a = labels[i], best = -2;   /* -2: none, -1: fresh */
        head = (head + 1) % n;
        in_queue[i] = 0;
        idx found = gather(ptr, nbr, w, labels, NULL, 0, i, w_to, seen, touched);
        double k_i = k[i], g_k = gamma * k_i, best_gain = 0.0;
        /* Gain of staying relative to sitting alone in an empty community. */
        double stay = w_to[a] - g_k * (comm_degree[a] - k_i) / two_m;
        for (idx t = 0; t < found; t++) {
            idx c = touched[t];
            double gain = w_to[c] - g_k * comm_degree[c] / two_m - stay;
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
        comm_degree[a] -= k_i;
        if (--comm_size[a] == 0) {
            comm_degree[a] = 0.0;
            lowest = a < lowest ? a : lowest;
        }
        comm_degree[best] += k_i;
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
}

static int well_connected(double cross, double degree, double k_total, double gamma,
                          double two_m) {
    return cross >= gamma * degree * (k_total - degree) / two_m;
}

static int ascending(const void *x, const void *y) {
    idx a = *(const idx *)x, b = *(const idx *)y;
    return (a > b) - (a < b);
}

/* Position of the chosen part among the first count cands/gains, or -1. */
typedef idx (*pick_fn)(idx count);

/* Refines parent community comm (total degree k_total): each member in
 * order, if still alone and well connected, joins the well-connected part
 * of the same parent with largest gain above tol, or with theta > 0 the
 * one pick() draws from cands/gains in ascending label order. Per-part
 * state (ref_labels, ref_size, ref_degree, cross: weight to the rest of
 * the parent, connected) is updated in place; members' cross and
 * connected are set first. */
void refine_community(const idx *ptr, const idx *nbr, const double *w, const double *k,
                      const idx *parent, idx comm, double k_total, double gamma,
                      double two_m, double theta, double tol, const idx *order, idx count,
                      idx *ref_labels, idx *ref_size, double *ref_degree, double *cross,
                      uint8_t *connected, double *w_to, uint8_t *seen, idx *cands,
                      double *gains, pick_fn pick) {
    for (idx t = 0; t < count; t++) {
        idx v = order[t];
        cross[v] = 0.0;
        for (idx e = ptr[v]; e < ptr[v + 1]; e++)
            if (parent[nbr[e]] == comm)
                cross[v] += w[e];
        connected[v] = well_connected(cross[v], k[v], k_total, gamma, two_m);
    }
    for (idx t = 0; t < count; t++) {
        idx v = order[t], kept = 0, target = -1;
        if (ref_size[v] != 1 || !connected[v])
            continue;
        idx found = gather(ptr, nbr, w, ref_labels, parent, comm, v, w_to, seen, cands);
        if (theta > 0.0)
            qsort(cands, (size_t)found, sizeof *cands, ascending);
        double best_gain = tol;
        for (idx f = 0; f < found; f++) {
            idx c = cands[f];
            seen[c] = 0;
            if (!connected[c]) {
                w_to[c] = 0.0;
                continue;
            }
            double gain = w_to[c] - gamma * k[v] * ref_degree[c] / two_m;
            if (gain > best_gain || (gain == best_gain && target >= 0 && c < target)) {
                best_gain = gain;
                target = c;
            }
            cands[kept] = c;
            gains[kept++] = gain;
        }
        if (theta > 0.0 && kept > 0) {
            idx chosen = pick(kept);
            target = chosen >= 0 && chosen < kept ? cands[chosen] : -1;
        }
        if (target >= 0) {
            ref_degree[target] += k[v];
            cross[target] += cross[v] - 2.0 * w_to[target];
            connected[target] = well_connected(cross[target], ref_degree[target], k_total,
                                               gamma, two_m);
            ref_size[target]++;
            ref_size[v] = 0;
            ref_labels[v] = target;
        }
        for (idx f = 0; f < kept; f++)
            w_to[cands[f]] = 0.0;
    }
}
