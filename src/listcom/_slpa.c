/* SLPA over a CSR graph, node by node, and the cover of one run's memories
 * (see listcom/detect.py).  detect_runs calls slpa and then cover for each
 * run, on the thread that runs it, with that thread's own memory and cover
 * buffer.
 *
 * slpa: the caller checks the arrays: n >= 1, indptr holds n + 1
 * non-decreasing offsets from 0, indices are in [0, n), weights are finite
 * and >= 0, and mem holds n rows of iterations + 1 labels.  Returns 0, or -1
 * if scratch memory cannot be allocated.
 *
 * cover: the communities of the active nodes (those with a neighbour) from
 * mem's rows of m labels in [0, n), in the canonical order: size
 * descending, then members lexicographic, without duplicates or groups of
 * one.  members holds room for capacity (node, label) pairs and groups for
 * capacity / 2 + 1 offsets.  Returns the number of communities, -1 if
 * scratch memory cannot be allocated, or -2 if the nodes keep more than
 * capacity labels. */
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

/* Size descending, then members lexicographic. */
static int canonical(const void *a, const void *b) {
    const group_t *x = a, *y = b;
    if (x->size != y->size) return x->size > y->size ? -1 : 1;
    for (int64_t k = 0; k < x->size; k++)
        if (x->members[k] != y->members[k]) return x->members[k] < y->members[k] ? -1 : 1;
    return 0;
}

int slpa(int64_t n, const int64_t *indptr, const int64_t *indices,
         const double *weights, uint64_t seed, int64_t iterations, int32_t *mem) {
    int64_t m = iterations + 1;
    visit_t *order = malloc(n * sizeof *order);
    int64_t *length = malloc(n * sizeof *length);
    int32_t *touched = malloc(n * sizeof *touched);
    double *votes = malloc(n * sizeof *votes);  /* -1.0: not collected */
    int status = order && length && touched && votes ? 0 : -1;
    for (int64_t u = 0; u < n && !status; u++) {
        mem[u * m] = (int32_t)u;
        length[u] = 1;
        votes[u] = -1.0;
    }
    for (int64_t it = 1; it <= iterations && !status; it++) {
        uint64_t visit = mix(seed, 2 * (uint64_t)it), draw = mix(seed, 2 * (uint64_t)it + 1);
        int64_t active = 0;
        for (int64_t u = 0; u < n; u++)
            if (indptr[u + 1] > indptr[u])
                order[active++] = (visit_t){mix(visit, (uint64_t)u), u};
        qsort(order, (size_t)active, sizeof *order, by_key_then_node);
        for (int64_t k = 0; k < active; k++) {
            int64_t u = order[k].node, count = 0;
            /* Votes per label, each summed from 0.0 in CSR order. */
            for (int64_t p = indptr[u]; p < indptr[u + 1]; p++) {
                int64_t v = indices[p];
                int32_t label = mem[v * m + (int64_t)(mix(draw, (uint64_t)p) % (uint64_t)length[v])];
                if (votes[label] < 0.0) {
                    votes[label] = 0.0;
                    touched[count++] = label;
                }
                votes[label] += weights[p];
            }
            /* The highest vote wins; ties, all-zero votes included, go to
             * the lowest label. */
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
            mem[u * m + length[u]++] = best;
        }
    }
    free(order);
    free(length);
    free(touched);
    free(votes);
    return status;
}

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
