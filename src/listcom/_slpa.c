/* One SLPA run over a CSR graph, node by node (see listcom/detect.py).
 *
 * The caller checks the arrays: n >= 1, indptr holds n + 1 non-decreasing
 * offsets from 0, indices are in [0, n), weights are finite and >= 0, and
 * mem holds n rows of iterations + 1 labels.  Returns 0, or -1 if scratch
 * memory cannot be allocated. */
#include <stdint.h>
#include <stdlib.h>

typedef struct { uint64_t key; int64_t node; } visit_t;

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
