/* Leiden's two sequential sweeps (cdgcn/leiden.py), one call each per
 * level, bit-exact with the per-node loops the tests keep as oracles:
 * nodes are visited in the given order, a node's weight into each
 * neighbouring community is summed from 0.0 in CSR row order, every gain
 * keeps the Python operand order, and the choice is the smallest label
 * among the maximal gains, as a strict scan in ascending label order
 * picks. Built with -ffp-contract=off and no fast-math, so nothing is
 * contracted or reassociated. The graph is symmetric CSR (ptr, nbr, w)
 * without diagonal, k its weighted degrees; ids are below n; scratch w_to
 * and seen are zero on entry and on return. */
#include <stddef.h>
#include <stdint.h>

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

/* Refines each parent community in turn: group g visits the members
 * order[starts[g]..starts[g + 1]), all of one parent community c (total
 * degree comm_degree[c]). The members' cross (weight to the rest of c) and
 * connected are set first; then each member in order, if still alone and
 * well connected, joins the well-connected part of c with largest gain
 * above tol. Per-part state (ref_labels, ref_size, ref_degree, cross,
 * connected) is indexed by the part's founding node and updated in place. */
void refine_partition(const idx *ptr, const idx *nbr, const double *w, const double *k,
                      const idx *parent, const double *comm_degree, double gamma, double two_m,
                      double tol, const idx *order, const idx *starts, idx groups,
                      idx *ref_labels, idx *ref_size, double *ref_degree, double *cross,
                      uint8_t *connected, double *w_to, uint8_t *seen, idx *cands) {
    for (idx g = 0; g < groups; g++) {
        idx comm = parent[order[starts[g]]];
        double k_total = comm_degree[comm];
        for (idx t = starts[g]; t < starts[g + 1]; t++) {
            idx v = order[t];
            cross[v] = 0.0;
            for (idx e = ptr[v]; e < ptr[v + 1]; e++)
                if (parent[nbr[e]] == comm)
                    cross[v] += w[e];
            connected[v] = well_connected(cross[v], k[v], k_total, gamma, two_m);
        }
        for (idx t = starts[g]; t < starts[g + 1]; t++) {
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
}
