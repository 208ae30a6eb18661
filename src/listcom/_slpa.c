/* The package's compiled kernel (loaded by listcom/kernel.py): SLPA over a
 * CSR graph one connected component at a time, the cover of one run's
 * memories, the one co-occurrence counter, the consensus fold of one run,
 * and the rows of a pair file.  detect_runs labels the components once,
 * then calls slpa and cover for each run, on the thread that runs it, with
 * that thread's own memory and cover buffer.  slpa's vote stops drawing at
 * a node of degree DECIDE_DEGREE or more once its leading label provably
 * wins, and returns the number of labels it drew.
 *
 * Every entry that allocates scratch returns -1 if it cannot.  Every entry
 * that writes into an output of a given capacity returns -2, having written
 * nothing past it, if the output would not fit.  components returns -3 for
 * a graph that is not simple and undirected.  The scratch bound of each
 * entry is stated above it; the caller's outputs come on top. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct { uint64_t key; int64_t node; } visit_t;
typedef struct { const int32_t *members; int64_t size; } group_t;

/* seeds.derive_seed: the splitmix64 finalizer of (seed, index). */
static uint64_t mix(uint64_t seed, uint64_t index) {
    uint64_t z = seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static int by_key_then_node(const void *a, const void *b) {
    const visit_t *x = a, *y = b;
    if (x->key != y->key) return x->key < y->key ? -1 : 1;
    return (x->node > y->node) - (x->node < y->node);
}

/* Components of up to this many nodes sort their visit order by insertion,
 * without qsort's call through the comparator per comparison. */
#define INSERTION_SORT_MAX 48

/* The visit order ascending by (key, node), the order by_key_then_node
 * gives; no two entries are equal, as nodes are distinct. */
static void sort_visits(visit_t *order, int64_t size) {
    if (size > INSERTION_SORT_MAX) {
        qsort(order, (size_t)size, sizeof *order, by_key_then_node);
        return;
    }
    for (int64_t k = 1; k < size; k++) {
        visit_t v = order[k];
        int64_t h = k;
        for (; h > 0 && (order[h - 1].key > v.key
                         || (order[h - 1].key == v.key && order[h - 1].node > v.node)); h--)
            order[h] = order[h - 1];
        order[h] = v;
    }
}

static int ascending(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Size descending, then members lexicographic. */
static int canonical(const void *a, const void *b) {
    const group_t *x = a, *y = b;
    if (x->size != y->size) return x->size > y->size ? -1 : 1;
    for (int64_t k = 0; k < x->size; k++)
        if (x->members[k] != y->members[k]) return x->members[k] < y->members[k] ? -1 : 1;
    return 0;
}

/* components: the connected components of the nodes with a neighbour, for
 * n >= 1 nodes of a CSR whose indptr holds n + 1 non-decreasing offsets
 * from 0 and whose indices are in [0, n).  Fills starts with parts + 1
 * offsets into nodes, which lists each component's nodes in ascending
 * order, components ordered by their lowest node.  starts needs room for
 * n + 1 offsets and nodes for n.  Returns the number of components, -1,
 * or -3, having written nothing, if the graph is not simple and
 * undirected: each row's neighbours strictly ascending, never the node
 * itself, and every edge stored in both rows.  slpa needs that, and only
 * then do the components divide the walk without changing it.  Scratch:
 * 8 n bytes, plus 8 bytes per component and 8. */
int64_t components(int64_t n, const int64_t *indptr, const int64_t *indices,
                   int64_t *starts, int32_t *nodes) {
    int32_t *part = malloc(n * sizeof *part), *queue = malloc(n * sizeof *queue);
    int64_t parts = 0, *fill = NULL;
    int64_t status = part && queue ? 0 : -1;
    /* The rows go in ascending order, so the edges (u, v) reach row v in
     * ascending u: each must meet the next unmatched entry of row v, of
     * which part[v] have been matched.  Then every entry is matched once,
     * and the graph is undirected. */
    for (int64_t u = 0; u < n && !status; u++) part[u] = 0;
    for (int64_t u = 0; u < n && !status; u++)
        for (int64_t p = indptr[u]; p < indptr[u + 1]; p++) {
            int64_t v = indices[p], next = indptr[v] + part[v];
            if (v == u || (p > indptr[u] && indices[p - 1] >= v)
                    || next == indptr[v + 1] || indices[next] != u) {
                status = -3;
                break;
            }
            part[v]++;
        }
    for (int64_t u = 0; u < n && !status; u++) part[u] = -1;
    /* Breadth first from each unlabelled node with a neighbour. */
    for (int64_t u = 0; u < n && !status; u++) {
        if (part[u] >= 0 || indptr[u + 1] == indptr[u]) continue;
        int64_t head = 0, tail = 0;
        part[u] = (int32_t)parts;
        queue[tail++] = (int32_t)u;
        while (head < tail) {
            int64_t v = queue[head++];
            for (int64_t p = indptr[v]; p < indptr[v + 1]; p++)
                if (part[indices[p]] < 0) {
                    part[indices[p]] = (int32_t)parts;
                    queue[tail++] = (int32_t)indices[p];
                }
        }
        starts[++parts] = tail;
    }
    /* Nodes grouped by component, ascending within it, by a counting sort. */
    if (!status) starts[0] = 0;
    for (int64_t c = 0; c < parts && !status; c++) starts[c + 1] += starts[c];
    if (!status) {
        fill = malloc((parts + 1) * sizeof *fill);
        status = fill ? 0 : -1;
    }
    if (!status) {
        memcpy(fill, starts, (parts + 1) * sizeof *fill);
        for (int64_t u = 0; u < n; u++)
            if (part[u] >= 0) nodes[fill[part[u]]++] = (int32_t)u;
    }
    free(part);
    free(queue);
    free(fill);
    return status ? status : parts;
}

/* Collects the label that the neighbour at CSR position p hands out, with
 * the iteration's slot key draw: adds the weight at p to its vote, and
 * lists it in touched when it is new (a vote of -1.0).  Returns the label. */
static inline int32_t collect(int64_t p, uint64_t draw, const int64_t *indices,
                              const double *weights, const int32_t *mem, int64_t m,
                              const int64_t *length, double *votes, int32_t *touched,
                              int64_t *count) {
    int64_t v = indices[p];
    int32_t label = mem[v * m + (int64_t)(mix(draw, (uint64_t)p) % (uint64_t)length[v])];
    if (votes[label] < 0.0) {
        votes[label] = 0.0;
        touched[(*count)++] = label;
    }
    votes[label] += weights[p];
    return label;
}

/* A node of at least this degree may stop drawing early (see slpa); a
 * shorter row is drawn whole, without the backward pass the decision needs. */
#define DECIDE_DEGREE 64
/* Draws between two checks of the early decision. */
#define DECIDE_PERIOD 4

/* slpa: one run over the components that components() made, each through
 * all its iterations before the next, for a graph that components()
 * accepted.  The caller checks the other arrays: weights are finite and
 * >= 0, and mem holds n rows of iterations + 1 labels.  Two components
 * never exchange labels, and the visit keys and slot draws depend on node
 * and CSR positions only, so the rows equal those of one walk over the
 * whole graph per iteration.
 *
 * The early decision.  The vote needs only its winner, so a node u of
 * degree d >= DECIDE_DEGREE stops drawing once one label provably wins.
 * The guess G is the last label of u's memory.  tail[v] describes v's
 * memory after its own slot 0: -1 while the memory is just [v], the label
 * of slots 1 and after while they all agree, -2 once two differ.  A
 * neighbour v is settled when tail[v] is -1 or G: it can hand out only v
 * or G.  For a label X != G the neighbours of u fall into three classes:
 *   - unsettled: v may hand out X;
 *   - settled, with v == X: the one settled neighbour that may hand out X;
 *   - settled, with v != X: v hands out v or G, never X.
 * A neighbour whose own id is G is settled by its tail like any other:
 * with a tail of another label it may hand out that label.
 * A backward pass over u's row gives open[q], the summed weights of the
 * unsettled neighbours at row offsets q and after plus the largest weight
 * of a settled one there, and the row's total weight.  Every
 * DECIDE_PERIOD draws, with q the next offset, the node stops when
 *     votes[G] > other + open[q] + 4 (d + 1) 2^-53 total,
 * other being the largest partial vote of a label other than G, and the
 * partial votes, already with G strictly highest, go to the scan below.
 * That is the winner a full vote gives:
 *   - weights are >= 0, so a vote only grows, in floating point too, and
 *     G's final vote is at least votes[G];
 *   - a label X != G can still gain every unsettled weight after q, but
 *     only one settled weight, that of the neighbour whose id is X, so its
 *     final vote is at most its partial vote (<= other) plus open[q];
 *   - that holds up to rounding: a vote, open[q] and total each add up to
 *     d + 1 terms >= 0 whose sum is at most about total, so each errs by
 *     at most about (d + 1) 2^-53 total, and the comparison's own two
 *     additions by about 4 2^-53 total; the slack exceeds all of these
 *     together (below 2^-1022 the sums are exact, and the slack's own
 *     underflow does not matter).
 * So G's final vote is strictly the highest, and no tie can arise.  A
 * total that overflows makes the slack infinite, and the node draws every
 * label.  Each draw is keyed by its CSR position, so a skipped draw moves
 * no other, and every memory row is the one a full vote gives, bit for
 * bit.  Nodes below DECIDE_DEGREE draw every label.
 *
 * Returns the number of labels drawn, or -1.  Scratch: 20 n bytes, plus
 * 20 bytes per node of the largest component, plus 8 bytes per position of
 * the longest row and 8. */
int64_t slpa(int64_t n, const int64_t *indptr, const int64_t *indices,
             const double *weights, uint64_t seed, int64_t iterations,
             int64_t parts, const int64_t *starts, const int32_t *nodes, int32_t *mem) {
    int64_t m = iterations + 1, largest = 1, widest = 0, drawn = 0;
    for (int64_t c = 0; c < parts; c++)
        if (starts[c + 1] - starts[c] > largest) largest = starts[c + 1] - starts[c];
    for (int64_t u = 0; u < n; u++)
        if (indptr[u + 1] - indptr[u] > widest) widest = indptr[u + 1] - indptr[u];
    visit_t *order = malloc(largest * sizeof *order);
    int32_t *touched = malloc(largest * sizeof *touched);
    int64_t *length = malloc(n * sizeof *length);
    int32_t *tail = malloc(n * sizeof *tail);
    double *votes = malloc(n * sizeof *votes);  /* -1.0: not collected */
    double *open = malloc((widest + 1) * sizeof *open);
    int64_t status = order && length && touched && tail && votes && open ? 0 : -1;
    for (int64_t u = 0; u < n && !status; u++) {
        mem[u * m] = (int32_t)u;
        length[u] = 1;
        tail[u] = -1;
        votes[u] = -1.0;
    }
    for (int64_t c = 0; c < parts && !status; c++) {
        const int32_t *part = nodes + starts[c];
        int64_t size = starts[c + 1] - starts[c];
        for (int64_t it = 1; it <= iterations; it++) {
            uint64_t visit = mix(seed, 2 * (uint64_t)it), draw = mix(seed, 2 * (uint64_t)it + 1);
            for (int64_t k = 0; k < size; k++)
                order[k] = (visit_t){mix(visit, (uint64_t)part[k]), part[k]};
            sort_visits(order, size);
            for (int64_t k = 0; k < size; k++) {
                int64_t u = order[k].node, count = 0, lo = indptr[u], hi = indptr[u + 1], p = lo;
                /* Votes per label, each summed from 0.0 in CSR order. */
                if (hi - lo < DECIDE_DEGREE) {
                    for (; p < hi; p++)
                        collect(p, draw, indices, weights, mem, m, length, votes, touched, &count);
                } else {
                    int32_t guess = mem[u * m + length[u] - 1];
                    double unsettled = 0.0, settled = 0.0, total = 0.0, other = 0.0;
                    open[hi - lo] = 0.0;
                    for (p = hi - 1; p >= lo; p--) {
                        int32_t t = tail[indices[p]];
                        if (t != -1 && t != guess) unsettled += weights[p];
                        else if (weights[p] > settled) settled = weights[p];
                        total += weights[p];
                        open[p - lo] = unsettled + settled;
                    }
                    double slack = 4.0 * (double)(hi - lo + 1) * 0x1p-53 * total;
                    for (p = lo; p < hi;) {
                        int32_t label = collect(p++, draw, indices, weights, mem, m, length,
                                                votes, touched, &count);
                        if (label != guess && votes[label] > other) other = votes[label];
                        if ((p - lo) % DECIDE_PERIOD == 0
                                && votes[guess] > other + open[p - lo] + slack) break;
                    }
                }
                drawn += p - lo;
                /* The highest vote wins; ties, all-zero votes included, go
                 * to the lowest label. */
                int32_t best = touched[0];
                double top = votes[best];
                for (int64_t j = 0; j < count; j++) {
                    int32_t label = touched[j];
                    if (votes[label] > top || (votes[label] == top && label < best)) {
                        best = label;
                        top = votes[label];
                    }
                    votes[label] = -1.0;
                }
                tail[u] = length[u] == 1 || tail[u] == best ? best : -2;
                mem[u * m + length[u]++] = best;
            }
        }
    }
    free(order);
    free(length);
    free(touched);
    free(tail);
    free(votes);
    free(open);
    return status ? status : drawn;
}

/* cover: the communities of the active nodes (those with a neighbour) from
 * mem's rows of m labels in [0, n), in the canonical order: size
 * descending, then members lexicographic, without duplicates or groups of
 * one.  members holds room for capacity (node, label) pairs and groups for
 * capacity / 2 + 1 offsets.  Returns the number of communities, -1, or -2
 * if the nodes keep more than capacity labels.  Scratch: 12 n + 4 m + 24
 * bytes, plus 20 bytes per unit of capacity. */
int64_t cover(int64_t n, const int64_t *indptr, const int32_t *mem, int64_t m,
              double threshold, int64_t capacity, int64_t *groups, int32_t *members) {
    int32_t *count = calloc(n, sizeof *count), *touched = malloc(m * sizeof *touched);
    int64_t *start = calloc(n + 1, sizeof *start);
    int32_t *label = malloc(capacity * sizeof *label), *node = malloc(capacity * sizeof *node);
    int32_t *grouped = malloc(capacity * sizeof *grouped);
    group_t *group = malloc((capacity / 2 + 1) * sizeof *group);
    int64_t status = count && touched && start && label && node && grouped && group ? 0 : -1;
    int64_t kept = 0, k = 0;
    /* Each active node keeps every label that holds at least threshold of
     * its memory, and its most frequent label, the lowest on ties. */
    for (int64_t u = 0; u < n && !status; u++) {
        if (indptr[u + 1] == indptr[u]) continue;
        const int32_t *row = mem + u * m;
        int64_t distinct = 0;
        for (int64_t s = 0; s < m; s++)
            if (count[row[s]]++ == 0) touched[distinct++] = row[s];
        int32_t best = touched[0];
        for (int64_t j = 1; j < distinct; j++)
            if (count[touched[j]] > count[best]
                    || (count[touched[j]] == count[best] && touched[j] < best))
                best = touched[j];
        for (int64_t j = 0; j < distinct; j++) {
            int32_t l = touched[j];
            if (l == best || (double)count[l] / (double)m >= threshold) {
                if (kept == capacity) {
                    status = -2;
                    break;
                }
                label[kept] = l;
                node[kept++] = (int32_t)u;
                start[l + 1]++;
            }
            count[l] = 0;
        }
    }
    /* Kept nodes grouped by label, ascending within a label, by a counting
     * sort; groups of two or more, in canonical order. */
    for (int64_t l = 0; l < n && !status; l++) start[l + 1] += start[l];
    for (int64_t p = 0; p < kept && !status; p++) grouped[start[label[p]]++] = node[p];
    for (int64_t l = 0, from = 0; l < n && !status; from = start[l++])
        if (start[l] - from >= 2) group[k++] = (group_t){grouped + from, start[l] - from};
    if (!status) qsort(group, (size_t)k, sizeof *group, canonical);
    int64_t written = 0;
    groups[0] = 0;
    for (int64_t g = 0; g < k && !status; g++) {
        if (g && canonical(&group[g], &group[g - 1]) == 0) continue;
        memcpy(members + groups[written], group[g].members, group[g].size * sizeof *members);
        groups[written + 1] = groups[written] + group[g].size;
        written++;
    }
    free(count);
    free(touched);
    free(start);
    free(label);
    free(node);
    free(grouped);
    free(group);
    return status ? status : written;
}

/* The one co-occurrence counter, for row i of the CSR (indptr, cols) and
 * its transpose (t_indptr, t_cols), each row ascending: the rows j > i
 * that share a column with i go to touched[0 .. returned), in ascending
 * order if sort is set, and count[j] to the number of columns they share.
 * count is zero on entry, and the caller zeroes it again for each touched
 * j.  Each column's rows j > i are found by a binary search of the column.
 * Rows found in ascending order need no sort, as for a node in one
 * community of a run; rows within a span of under SCAN_SPAN times their
 * number are collected by a scan of count over the span; others are
 * sorted. */
#define SCAN_SPAN 8
static int64_t row_pairs(int64_t i, const int32_t *indptr, const int32_t *cols,
                         const int32_t *t_indptr, const int32_t *t_cols,
                         int32_t *count, int32_t *touched, int sort) {
    int64_t k = 0;
    int in_order = 1;
    for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
        int64_t lo = t_indptr[cols[p]], hi = t_indptr[cols[p] + 1], end = hi;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (t_cols[mid] <= i) lo = mid + 1;
            else hi = mid;
        }
        for (int64_t q = lo; q < end; q++)
            if (count[t_cols[q]]++ == 0) {
                if (k && t_cols[q] < touched[k - 1]) in_order = 0;
                touched[k++] = t_cols[q];
            }
    }
    if (!sort || in_order) return k;
    int32_t low = touched[0], high = touched[0];
    for (int64_t t = 1; t < k; t++) {
        if (touched[t] < low) low = touched[t];
        if (touched[t] > high) high = touched[t];
    }
    if ((int64_t)high - low + 1 < SCAN_SPAN * k) {
        int64_t w = 0;
        for (int64_t j = low; j <= high; j++)
            if (count[j]) touched[w++] = (int32_t)j;
    } else {
        qsort(touched, (size_t)k, sizeof *touched, ascending);
    }
    return k;
}

/* pair_counts: the pair keys i * l + j (i < j) of the l rows of the CSR
 * (indptr, cols) that share a column, ascending, and the number of columns
 * each pair shares; (t_indptr, t_cols) is the transpose, and both list each
 * row's entries in ascending order.  With keys NULL, only counts the pairs;
 * otherwise writes them to keys and counts, which hold capacity entries.
 * Returns the number of pairs, -1, or -2.  Scratch: 8 l + 8 bytes. */
int64_t pair_counts(int64_t l, const int32_t *indptr, const int32_t *cols,
                    const int32_t *t_indptr, const int32_t *t_cols,
                    int64_t capacity, int64_t *keys, int64_t *counts) {
    int32_t *count = calloc(l + 1, sizeof *count), *touched = malloc((l + 1) * sizeof *touched);
    int64_t total = count && touched ? 0 : -1;
    for (int64_t i = 0; i < l && total >= 0; i++) {
        int64_t k = row_pairs(i, indptr, cols, t_indptr, t_cols, count, touched, keys != NULL);
        if (keys && total + k > capacity) {
            total = -2;
            break;
        }
        for (int64_t t = 0; t < k; t++) {
            if (keys) {
                keys[total + t] = i * l + touched[t];
                counts[total + t] = count[touched[t]];
            }
            count[touched[t]] = 0;
        }
        total += k;
    }
    free(count);
    free(touched);
    return total;
}

/* fold: one run's cover, k communities of the nodes groups[c] ..
 * groups[c + 1] in members (each ascending, in [0, l)), folded into the
 * consensus matrix of the given ascending keys and values.  Communities of
 * fewer than two nodes are ignored.  Each node's row lists its communities
 * in ascending order; row_pairs counts the communities inter a pair (i, j)
 * shares, and the pair scores inter / (|X| + |Y| - inter) with
 * |X| and |Y| the lengths of the two rows.  Merges in one pass into
 * out_keys and out_values, which hold capacity entries: a key already in
 * the matrix gets its value + score, a new key the score.  Returns the
 * number of merged entries, -1, or -2.  Scratch: 16 l + 4 k + 24 bytes,
 * plus 4 bytes per member. */
int64_t fold(int64_t l, int64_t k, const int64_t *groups, const int32_t *members,
             int64_t entries, const int64_t *keys, const double *values,
             int64_t capacity, int64_t *out_keys, double *out_values) {
    int32_t *indptr = calloc(l + 1, sizeof *indptr), *fill = malloc((l + 1) * sizeof *fill);
    int32_t *t_indptr = malloc((k + 1) * sizeof *t_indptr);
    int32_t *cols = malloc((groups[k] + 1) * sizeof *cols);
    int32_t *count = calloc(l + 1, sizeof *count), *touched = malloc((l + 1) * sizeof *touched);
    int64_t written = indptr && fill && t_indptr && cols && count && touched ? 0 : -1;
    /* The node rows, by a counting sort of the members of each community of
     * two or more. */
    for (int64_t c = 0; c <= k && written >= 0; c++) t_indptr[c] = (int32_t)groups[c];
    for (int64_t c = 0; c < k && written >= 0; c++)
        if (groups[c + 1] - groups[c] >= 2)
            for (int64_t p = groups[c]; p < groups[c + 1]; p++) indptr[members[p] + 1]++;
    for (int64_t u = 0; u < l && written >= 0; u++) indptr[u + 1] += indptr[u];
    if (written >= 0) memcpy(fill, indptr, (l + 1) * sizeof *fill);
    for (int64_t c = 0; c < k && written >= 0; c++)
        if (groups[c + 1] - groups[c] >= 2)
            for (int64_t p = groups[c]; p < groups[c + 1]; p++)
                cols[fill[members[p]]++] = (int32_t)c;
    int64_t e = 0;
    for (int64_t i = 0; i < l && written >= 0; i++) {
        if (indptr[i + 1] == indptr[i]) continue;
        int64_t pairs = row_pairs(i, indptr, cols, t_indptr, members, count, touched, 1);
        int64_t size = indptr[i + 1] - indptr[i];
        for (int64_t t = 0; t < pairs; t++) {
            int64_t j = touched[t], key = i * l + j, inter = count[j];
            double score = (double)inter / (double)(size + indptr[j + 1] - indptr[j] - inter);
            count[j] = 0;
            while (e < entries && keys[e] < key && written < capacity) {
                out_keys[written] = keys[e];
                out_values[written++] = values[e++];
            }
            if (written == capacity) {
                written = -2;
                break;
            }
            out_keys[written] = key;
            out_values[written++] = e < entries && keys[e] == key ? values[e++] + score : score;
        }
    }
    if (written >= 0 && written + entries - e > capacity) written = -2;
    if (written >= 0) {
        memcpy(out_keys + written, keys + e, (entries - e) * sizeof *out_keys);
        memcpy(out_values + written, values + e, (entries - e) * sizeof *out_values);
        written += entries - e;
    }
    free(indptr);
    free(fill);
    free(t_indptr);
    free(cols);
    free(count);
    free(touched);
    return written;
}

/* pair_rows: the pair-file rows a<TAB>b<TAB>text of row r in 0 .. rows,
 * with a the bytes ids[id_ends[i[r]] .. id_ends[i[r] + 1]) (id_ends[0] is
 * 0), b likewise for j[r], and text the bytes texts[text_ends[which[r]] ..
 * text_ends[which[r] + 1]).  The caller checks that the indices are in
 * range.  Writes to out, which holds capacity bytes.  Returns the bytes
 * written, or -2.  No scratch. */
int64_t pair_rows(int64_t rows, const int64_t *i, const int64_t *j, const int64_t *which,
                  const char *ids, const int64_t *id_ends, const char *texts,
                  const int64_t *text_ends, int64_t capacity, char *out) {
    int64_t written = 0;
    for (int64_t r = 0; r < rows; r++) {
        int64_t a = id_ends[i[r]], la = id_ends[i[r] + 1] - a;
        int64_t b = id_ends[j[r]], lb = id_ends[j[r] + 1] - b;
        int64_t t = text_ends[which[r]], lt = text_ends[which[r] + 1] - t;
        if (written + la + lb + lt + 3 > capacity) return -2;
        memcpy(out + written, ids + a, la);
        written += la;
        out[written++] = '\t';
        memcpy(out + written, ids + b, lb);
        written += lb;
        out[written++] = '\t';
        memcpy(out + written, texts + t, lt);
        written += lt;
        out[written++] = '\n';
    }
    return written;
}
