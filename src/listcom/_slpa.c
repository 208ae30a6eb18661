/* The package's compiled kernel (loaded by listcom/kernel.py): SLPA over a
 * CSR graph one connected component at a time, the cover of one run's
 * memories, the one co-occurrence counter, the consensus fold of one run,
 * the symmetric CSR of a graph's pairs, the distinct values of an array,
 * and the rows of a pair file.  detect_runs labels the components once,
 * then calls slpa and cover for each run, on the thread that runs it, with
 * that thread's own memory and cover buffer.  slpa's vote stops drawing at
 * a node of degree DECIDE_DEGREE or more once its leading label provably
 * wins, from counts of settled neighbours that each change of a
 * neighbour's memory pushes, and returns the number of labels it drew.
 *
 * Every entry that allocates scratch returns -1 if it cannot.  Every entry
 * that writes into an output of a given capacity returns -2, having written
 * nothing past it, if the output would not fit.  components returns -3 for
 * a graph that is not simple and undirected, and csr for a pair key whose
 * first node is not below its second.  The scratch bound of each entry is
 * stated above it; the caller's outputs come on top. */
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
int64_t components(int64_t n, const int64_t *indptr, const int32_t *indices,
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
                    queue[tail++] = indices[p];
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
 * lists it in touched when it is new (a vote of -1).  Returns the label. */
static inline int32_t collect(int64_t p, uint64_t draw, const int32_t *indices,
                              const int64_t *weights, const int32_t *mem, int64_t m,
                              const int64_t *length, int64_t *votes, int32_t *touched,
                              int64_t *count) {
    int64_t v = indices[p];
    int32_t label = mem[v * m + (int64_t)(mix(draw, (uint64_t)p) % (uint64_t)length[v])];
    if (votes[label] < 0) {
        votes[label] = 0;
        touched[(*count)++] = label;
    }
    votes[label] += weights[p];
    return label;
}

/* A node of at least this degree may stop drawing early (see slpa); a
 * shorter row is drawn whole. */
#define DECIDE_DEGREE 64
/* Draws between two checks of the early decision. */
#define DECIDE_PERIOD 4

/* What the early decision keeps per node x: the exact counts known, of
 * x's neighbours whose tail is not -1, and agree, of those whose tail is
 * tracked; and the largest weight of x's row, cached by the pass that sets
 * tracked. */
typedef struct { int32_t tracked, known, agree; int64_t wmax; } decide_t;

/* Tells each neighbour x of v that v's tail went from old to now: from -1
 * to a label, or from a label to -2. */
static void push(int64_t v, int32_t old, int32_t now, const int64_t *indptr,
                 const int32_t *indices, decide_t *decide) {
    for (int64_t p = indptr[v]; p < indptr[v + 1]; p++) {
        decide_t *x = &decide[indices[p]];
        if (old == -1) {
            x->known++;
            x->agree += x->tracked == now;
        } else {
            x->agree -= x->tracked == old;
        }
    }
}

/* slpa: one run over the components that components() made, each through
 * all its iterations before the next, for a graph that components()
 * accepted.  The caller checks the other arrays: weights are >= 0, with
 * wmax (2 d + 1) < 2^63 for the largest weight wmax and the largest degree
 * d, and mem holds n rows of iterations + 1 labels.  Votes are integer
 * sums, exact and independent of the order of their terms, and none
 * overflows, as a vote is at most d wmax.  Two components never exchange
 * labels, and the visit keys and slot draws depend on node and CSR
 * positions only, so the rows equal those of one walk over the whole graph
 * per iteration.
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
 *
 * A tail changes at most twice per run, from -1 to a label and from that
 * label to -2, and each change is pushed to every neighbour x (push), so
 * decide[x] knows how many of x's neighbours have a tail other than -1 and
 * how many have the tail tracked[x], in at most two passes over the edges
 * per run.  Graphs without a row of DECIDE_DEGREE push nothing.  At a visit
 * with a guess G other than tracked[u], one pass over u's row counts the
 * neighbours whose tail is G and caches the row's largest weight wmax;
 * then tracked[u] = G.  So known - agree neighbours are unsettled, and the
 * draw loop counts down the unsettled ones it draws.  Every DECIDE_PERIOD
 * draws, with k unsettled neighbours not yet drawn, the node stops when
 *     votes[G] > other + (k + 1) wmax,
 * other being the largest partial vote of a label other than G, and the
 * partial votes, already with G strictly highest, go to the scan below.
 * That is the winner a full vote gives.  Weights are >= 0, so a vote only
 * grows, and G's final vote is at least votes[G].  A label X != G can
 * still gain the weights of the k unsettled neighbours not yet drawn and
 * that of the neighbour whose id is X, if it is settled and not yet drawn:
 * at most (k + 1) wmax.  So X's final vote is at most the right side,
 * below G's, and no tie can arise.  The right side is at most d wmax +
 * (d + 1) wmax < 2^63.  Each draw is keyed by its CSR position, so a
 * skipped draw moves no other, and every memory row is the one a full vote
 * gives.  Nodes below DECIDE_DEGREE draw every label.
 *
 * Returns the number of labels drawn, or -1.  Scratch: 44 n bytes, plus
 * 20 bytes per node of the largest component. */
int64_t slpa(int64_t n, const int64_t *indptr, const int32_t *indices,
             const int64_t *weights, uint64_t seed, int64_t iterations,
             int64_t parts, const int64_t *starts, const int32_t *nodes, int32_t *mem) {
    int64_t m = iterations + 1, largest = 1, widest = 0, drawn = 0;
    for (int64_t c = 0; c < parts; c++)
        if (starts[c + 1] - starts[c] > largest) largest = starts[c + 1] - starts[c];
    for (int64_t u = 0; u < n; u++)
        if (indptr[u + 1] - indptr[u] > widest) widest = indptr[u + 1] - indptr[u];
    int pushes = widest >= DECIDE_DEGREE;
    visit_t *order = malloc(largest * sizeof *order);
    int32_t *touched = malloc(largest * sizeof *touched);
    int64_t *length = malloc(n * sizeof *length);
    int32_t *tail = malloc(n * sizeof *tail);
    int64_t *votes = malloc(n * sizeof *votes);  /* -1: not collected */
    decide_t *decide = malloc(n * sizeof *decide);
    int64_t status = order && length && touched && tail && votes && decide ? 0 : -1;
    for (int64_t u = 0; u < n && !status; u++) {
        mem[u * m] = (int32_t)u;
        length[u] = 1;
        tail[u] = -1;
        votes[u] = -1;
        decide[u] = (decide_t){-1, 0, 0, 0};
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
                if (hi - lo < DECIDE_DEGREE) {
                    for (; p < hi; p++)
                        collect(p, draw, indices, weights, mem, m, length, votes, touched, &count);
                } else {
                    int32_t guess = mem[u * m + length[u] - 1];
                    decide_t *own = &decide[u];
                    if (own->tracked != guess) {
                        own->tracked = guess;
                        own->agree = 0;
                        own->wmax = 0;
                        for (p = lo; p < hi; p++) {
                            own->agree += tail[indices[p]] == guess;
                            if (weights[p] > own->wmax) own->wmax = weights[p];
                        }
                    }
                    int64_t unsettled = own->known - own->agree, other = 0;
                    for (p = lo; p < hi;) {
                        int32_t t = tail[indices[p]];
                        unsettled -= t != -1 && t != guess;
                        int32_t label = collect(p++, draw, indices, weights, mem, m, length,
                                                votes, touched, &count);
                        if (label != guess && votes[label] > other) other = votes[label];
                        if ((p - lo) % DECIDE_PERIOD == 0
                                && votes[guess] > other + (unsettled + 1) * own->wmax) break;
                    }
                }
                drawn += p - lo;
                /* The highest vote wins; ties, all-zero votes included, go
                 * to the lowest label. */
                int32_t best = touched[0];
                int64_t top = votes[best];
                for (int64_t j = 0; j < count; j++) {
                    int32_t label = touched[j];
                    if (votes[label] > top || (votes[label] == top && label < best)) {
                        best = label;
                        top = votes[label];
                    }
                    votes[label] = -1;
                }
                int32_t old = tail[u];
                tail[u] = length[u] == 1 || old == best ? best : -2;
                if (pushes && tail[u] != old) push(u, old, tail[u], indptr, indices, decide);
                mem[u * m + length[u]++] = best;
            }
        }
    }
    free(order);
    free(length);
    free(touched);
    free(tail);
    free(votes);
    free(decide);
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

/* csr: the symmetric CSR of n nodes, for n < 2^31, from the given pair
 * keys i * n + j in [0, n^2), distinct and ascending, with values w[k].
 * Writes n + 1 offsets to indptr, and 2 pairs entries to indices and
 * weights.  One pass splits each key and counts the degrees, shifted so that
 * indptr[a + 1] starts as row a's offset; one pass fills the rows, with
 * indptr[a + 1] as row a's cursor, and leaves it at row a's end.  Row a
 * takes its pairs (b, a), which come in ascending b, before its pairs
 * (a, c), as every b < a: so each row is ascending.  Returns 0, or -3,
 * having written nothing to indices or weights, for a key with i >= j.
 * No scratch. */
int64_t csr(int64_t n, int64_t pairs, const int64_t *keys, const int64_t *w,
            int64_t *indptr, int32_t *indices, int64_t *weights) {
    memset(indptr, 0, (n + 1) * sizeof *indptr);
    for (int64_t k = 0; k < pairs; k++) {
        int64_t i = keys[k] / n, j = keys[k] % n;
        if (i >= j) return -3;
        if (i + 2 <= n) indptr[i + 2]++;
        if (j + 2 <= n) indptr[j + 2]++;
    }
    for (int64_t a = 2; a <= n; a++) indptr[a] += indptr[a - 1];
    for (int64_t k = 0; k < pairs; k++) {
        int64_t i = keys[k] / n, j = keys[k] % n;
        int64_t a = indptr[i + 1]++, b = indptr[j + 1]++;
        indices[a] = (int32_t)j;
        weights[a] = w[k];
        indices[b] = (int32_t)i;
        weights[b] = w[k];
    }
    return 0;
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
 * with a the bytes ids[id_ends[i] .. id_ends[i + 1]) (id_ends[0] is 0) of
 * the pair key keys[r] = i * n + j, b likewise for j, and text the bytes
 * texts[text_ends[which[r]] .. text_ends[which[r] + 1]).  The caller checks
 * that the keys are in [0, n^2) and the indices in range.  Writes to out,
 * which holds capacity bytes.  Returns the bytes written, or -2.  No
 * scratch. */
int64_t pair_rows(int64_t rows, int64_t n, const int64_t *keys, const int64_t *which,
                  const char *ids, const int64_t *id_ends, const char *texts,
                  const int64_t *text_ends, int64_t capacity, char *out) {
    int64_t written = 0;
    for (int64_t r = 0; r < rows; r++) {
        int64_t i = keys[r] / n, j = keys[r] % n;
        int64_t a = id_ends[i], la = id_ends[i + 1] - a;
        int64_t b = id_ends[j], lb = id_ends[j + 1] - b;
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

/* distinct: the distinct values of bits[0 .. count), in the order of their
 * first occurrence: first[d] is the position where the d-th first occurs,
 * and which[k] is the d of bits[k].  first holds room for count positions.
 * An open-addressing table of the distinct values seen so far, at most
 * half full, doubles as they grow.  Returns the number of distinct values,
 * or -1.  Scratch: 32 bytes per distinct value, and 128. */
int64_t distinct(int64_t count, const int64_t *bits, int64_t *which, int64_t *first) {
    int64_t size = 16, found = 0;
    int64_t *table = NULL;
    for (int64_t k = 0; k < count; k++) {
        if (!table || 2 * (found + 1) > size) {
            /* Grown from first[], so the old table goes first. */
            size = table ? 2 * size : size;
            free(table);
            table = malloc(size * sizeof *table);
            if (!table) return -1;
            memset(table, 0xff, size * sizeof *table);
            for (int64_t d = 0; d < found; d++) {
                uint64_t h = mix(0, (uint64_t)bits[first[d]]) & (uint64_t)(size - 1);
                while (table[h] >= 0) h = (h + 1) & (uint64_t)(size - 1);
                table[h] = d;
            }
        }
        uint64_t h = mix(0, (uint64_t)bits[k]) & (uint64_t)(size - 1);
        while (table[h] >= 0 && bits[first[table[h]]] != bits[k])
            h = (h + 1) & (uint64_t)(size - 1);
        if (table[h] < 0) {
            first[found] = k;
            table[h] = found++;
        }
        which[k] = table[h];
    }
    free(table);
    return found;
}
