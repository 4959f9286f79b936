/* The compiled engine's conv and FC cores, one pass each
 * (repro.compiled.kernels.k_conv and k_fc; built, cached and loaded by
 * repro.compiled.native; DESIGN.md section 12).
 *
 * conv_tree: for a tile of LANES output coordinates the (G, K) windows are
 * gathered once, lanes minor. Then every output map runs its K products, the
 * unpadded product tree and the bias-first group chain on LANES-wide
 * vectors, in the association of the interpreted core's tree_reduce:
 * level by level, left + right, an odd level's last node carried as
 * "node + 0.0" the first time only. The first three levels of every
 * aligned block of 8 leaves are one expression; the levels above reduce
 * the block sums in place. Up to MAPS output maps run side by side, so
 * each window vector is loaded once per block of maps; every map's own
 * association is unchanged.
 *
 * fc_chains: the interleaved accumulators of the FC core. Input i feeds
 * lane i mod L; each lane is the sequential chain ((0 + w x_l) + w x_{l+L})
 * + ..., and the lanes meet in the same unpadded tree, then the bias.
 *
 * Build with -ffp-contract=off and never -ffast-math: a fused multiply-add
 * or a re-associated sum changes bits. Where two NaNs meet, either payload
 * may come out, as in the interpreted cores' numpy: the engines' digest
 * (repro.dataflow.stable_digest) counts every NaN as one value.
 */
#include <stdint.h>
#include <string.h>

#define LANES 16
/* Output maps whose trees run interleaved, sharing each window vector. */
#define MAPS 6
typedef float vf __attribute__((vector_size(LANES * 4)));
typedef int32_t vi __attribute__((vector_size(LANES * 4)));

/* One 16-lane vector is one AVX-512 register. On a 256-bit target GCC
 * moves such vectors through the stack in pieces: an AVX2 clone measured
 * slower than the baseline build, which is what such hosts get. Clones
 * dispatch through an ifunc, which needs glibc. */
#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx512f", "default")))
#else
#define CLONES
#endif
#define INLINE static inline __attribute__((always_inline))

/* *s in every lane, bit for bit (0.0 + *s would turn -0.0 into +0.0). */
INLINE vf splat(const float *s)
{
    int32_t bits;
    memcpy(&bits, s, sizeof bits);
    return (vf)((vi){0} | bits);
}

/* The first tree level over leaves j and j + 1 of map b. */
#define PAIR(j) (wb[j] * v[j] + wb[j + 1] * v[j + 1])

/* The unpadded tree over nodes [0, width) of nb interleaved trees, in place:
 * tree b's node i is v[i * nb + b], and its sum ends in v[b]. */
INLINE void reduce(vf *v, int64_t width, int *carried, const int nb)
{
    while (width > 1) {
        int64_t half = width >> 1;
        for (int64_t i = 0; i < half; i++)
            for (int b = 0; b < nb; b++)
                v[i * nb + b] = v[2 * i * nb + b] + v[(2 * i + 1) * nb + b];
        if (width & 1) {
            for (int b = 0; b < nb; b++)
                v[half * nb + b] = *carried ? v[(width - 1) * nb + b]
                                            : v[(width - 1) * nb + b] + 0.0f;
            *carried = 1;
        }
        width -= half;
    }
}

/* acc[b] + tree_reduce(w_b * x) over the K leaves of one group for the nb
 * maps whose weights are w_b = w + b * K; `node` holds (K / 8 + 1) * nb
 * vectors. */
INLINE void group_trees(vf *restrict acc, vf *restrict node,
                        const vf *restrict x, const float *restrict w,
                        int64_t K, const int nb)
{
    int64_t n = 0, k = 0;
    int carried = 0;
    for (; k + 8 <= K; k += 8, n++) {
        vf v[8];
        for (int j = 0; j < 8; j++)
            v[j] = x[k + j];
        for (int b = 0; b < nb; b++) {
            const float *wb = w + b * K + k;
            node[n * nb + b] = (PAIR(0) + PAIR(2)) + (PAIR(4) + PAIR(6));
        }
    }
    if (k < K) {
        /* The last, partial block: its own trees, then carried up to the
         * block level unless it is the whole tree. */
        vf p[8 * MAPS];
        for (int64_t j = 0; j < K - k; j++)
            for (int b = 0; b < nb; b++)
                p[j * nb + b] = w[b * K + k + j] * x[k + j];
        reduce(p, K - k, &carried, nb);
        int carry = n && !carried;
        for (int b = 0; b < nb; b++)
            node[n * nb + b] = carry ? p[b] + 0.0f : p[b];
        carried |= n > 0;
        n++;
    }
    reduce(node, n, &carried, nb);
    for (int b = 0; b < nb; b++)
        acc[b] += node[b];
}

/* Groups [0, gn) of the nb maps whose sums are acc[0..nb): group g's
 * windows at x + g * K, its weight rows at w + g * OK. */
INLINE void map_block(vf *acc, vf *node, const vf *x, const float *w,
                      int64_t gn, int64_t OK, int64_t K, const int nb)
{
    vf a[MAPS];
    for (int b = 0; b < nb; b++)
        a[b] = acc[b];
    for (int64_t g = 0; g < gn; g++)
        group_trees(a, node, x + g * K, w + g * OK, K, nb);
    for (int b = 0; b < nb; b++)
        acc[b] = a[b];
}

/* Gather the windows of lanes [lane, lane + LANES) into x[(g, k)], one
 * vector of lanes per window element. Port p's element (image, row, col,
 * g, ky, kx) is at ports[p] plus the dot product with its six byte
 * strides. Lanes past the last repeat it: their values are never stored. */
INLINE void gather(vf *restrict x, const float *const *ports,
                   const int64_t *strides, int64_t n_ports, int64_t lane,
                   int64_t lanes, int64_t rows, int64_t cols, int64_t G,
                   int64_t kh, int64_t kw)
{
    int64_t K = n_ports * kh * kw, at[LANES][3];
    int64_t image = lane / (rows * cols), row = lane / cols % rows,
            col = lane % cols;
    for (int t = 0; t < LANES; t++) {
        at[t][0] = image;
        at[t][1] = row;
        at[t][2] = col;
        if (lane + t + 1 < lanes && ++col == cols) {
            col = 0;
            if (++row == rows) {
                row = 0;
                image++;
            }
        }
    }
    for (int64_t p = 0; p < n_ports; p++) {
        const int64_t *s = strides + 6 * p;
        int64_t sg = s[3], sy = s[4], sx = s[5];
        /* Lane t's window is rel[t] bytes past lane 0's. */
        int64_t rel[LANES];
        for (int t = 0; t < LANES; t++)
            rel[t] = (at[t][0] - at[0][0]) * s[0] +
                     (at[t][1] - at[0][1]) * s[1] +
                     (at[t][2] - at[0][2]) * s[2];
        const char *base = (const char *)ports[p] + at[0][0] * s[0] +
                           at[0][1] * s[1] + at[0][2] * s[2];
        vf *dst = x + p * kh * kw;
        for (int64_t g = 0; g < G; g++)
            for (int64_t ky = 0; ky < kh; ky++)
                for (int64_t kx = 0; kx < kw; kx++) {
                    const char *src = base + g * sg + ky * sy + kx * sx;
                    float *d = (float *)&dst[g * K + ky * kw + kx];
                    for (int t = 0; t < LANES; t++)
                        memcpy(d + t, src + rel[t], sizeof(float));
                }
    }
}

/* Floats of scratch conv_tree needs for G groups of K leaves and O maps:
 * the windows, the tree nodes of one block of maps, the sums, and LANES
 * floats to align them. */
int64_t conv_scratch(int64_t G, int64_t K, int64_t O)
{
    return (G * K + (K / 8 + 1) * MAPS + O + 1) * LANES;
}

/* out[lane, o] for every lane (images x rows x cols, row-major) and
 * output map o, before the activation. w is (G, O, K) with K =
 * n_ports*kh*kw, port-major. `scratch` holds conv_scratch(G, K, O) floats. */
CLONES void conv_tree(const float *const *ports, const int64_t *strides,
                      int64_t n_ports, int64_t images, int64_t rows,
                      int64_t cols, int64_t G, int64_t kh, int64_t kw,
                      int64_t O, const float *w, const float *bias,
                      float *out, float *scratch)
{
    int64_t lanes = images * rows * cols, K = n_ports * kh * kw;
    /* Groups go in chunks of about 16 KiB of windows, every output map
     * through one chunk before the next, so the chunk stays in L1. */
    int64_t chunk = K < 256 ? 256 / K : 1;
    vf *x = (vf *)(((uintptr_t)scratch + sizeof(vf) - 1) & -sizeof(vf));
    vf *node = x + G * K, *acc = node + (K / 8 + 1) * MAPS;
    for (int64_t lane = 0; lane < lanes; lane += LANES) {
        gather(x, ports, strides, n_ports, lane, lanes, rows, cols, G, kh, kw);
        for (int64_t o = 0; o < O; o++)
            acc[o] = splat(bias + o);
        for (int64_t g0 = 0; g0 < G; g0 += chunk) {
            int64_t gn = G - g0 < chunk ? G - g0 : chunk;
            for (int64_t o = 0; o < O; o += MAPS) {
                const vf *xg = x + g0 * K;
                const float *wg = w + (g0 * O + o) * K;
#define MAP_BLOCK(nb) \
    case nb: map_block(acc + o, node, xg, wg, gn, O * K, K, nb); break
                switch (O - o < MAPS ? O - o : MAPS) {
                MAP_BLOCK(1); MAP_BLOCK(2); MAP_BLOCK(3);
                MAP_BLOCK(4); MAP_BLOCK(5); MAP_BLOCK(6);
                }
            }
        }
        for (int64_t t = 0; t < LANES && lane + t < lanes; t++)
            for (int64_t o = 0; o < O; o++)
                out[(lane + t) * O + o] = acc[o][t];
    }
}

/* -- FC ------------------------------------------------------------------ */

/* Output rows whose lane chains run side by side, sharing each load of x. */
#define ROWS 4

/* The first n (<= LANES) floats at p, the other lanes +0.0. */
INLINE vf load(const float *p, int64_t n)
{
    vf v = {0};
    for (int t = 0; t < LANES; t++)
        if (t < n)
            v[t] = p[t];
    return v;
}

/* Lanes [c, c + n) of the chains of ROWS output rows, row r's weights at
 * w[r]: acc[r][t] = lane c + t's chain over inputs c + t, c + t + L, ...
 * A step whose LANES floats all lie inside the row is read with one
 * unaligned load; x's lanes past n are masked to +0.0 there, and their
 * sums are never read. The last steps read n or fewer floats, the rest
 * +0.0: a chain that began 0 + t is never -0.0, so adding 0 * 0 = +0.0
 * changes no bit, and a lane that gets no input stays +0.0. */
INLINE void chains(vf *acc, const float *const *w, const float *x, int64_t I,
                   int64_t L, int64_t c, int64_t n)
{
    static const vi iota = {0, 1, 2,  3,  4,  5,  6,  7,
                            8, 9, 10, 11, 12, 13, 14, 15};
    vi mask = iota < (vi){0} + (int32_t)n;
    for (int r = 0; r < ROWS; r++)
        acc[r] = (vf){0};
    int64_t i = c;
    for (; i + LANES <= I; i += L) {
        vf xv;
        memcpy(&xv, x + i, sizeof xv);
        xv = (vf)((vi)xv & mask);
        for (int r = 0; r < ROWS; r++) {
            vf wv;
            memcpy(&wv, w[r] + i, sizeof wv);
            acc[r] += wv * xv;
        }
    }
    for (; i < I; i += L) {
        int64_t m = I - i < n ? I - i : n;
        vf xv = load(x + i, m);
        for (int r = 0; r < ROWS; r++)
            acc[r] += load(w[r] + i, m) * xv;
    }
}

/* Floats of scratch fc_chains needs for `images` images of L lanes: the
 * lane partials, and LANES floats to align them. */
int64_t fc_scratch(int64_t images, int64_t L)
{
    return (images * L + 1) * LANES;
}

/* out[b, o] for every image b and output o, before the activation: the
 * lane tree of o's L chains over image b's x, plus bias[o]. w is (O, I),
 * x (images, I) and out (images, O), all row-major. `scratch` holds
 * fc_scratch(images, L) floats.
 *
 * LANES outputs at a time: output o0 + r's lane l partial for image b goes
 * to lane r of part[b * L + l], so the lane trees of LANES outputs are one
 * reduce. Each group of ROWS weight rows runs over every image while it is
 * in L1; the rows past the last repeat it, and their sums are dropped. */
CLONES void fc_chains(const float *w, const float *x, int64_t images,
                      int64_t I, int64_t O, int64_t L, const float *bias,
                      float *out, float *scratch)
{
    vf *part = (vf *)(((uintptr_t)scratch + sizeof(vf) - 1) & -sizeof(vf));
    for (int64_t o0 = 0; o0 < O; o0 += LANES) {
        int64_t rows = O - o0 < LANES ? O - o0 : LANES;
        for (int64_t o = 0; o < rows; o += ROWS) {
            const float *wr[ROWS];
            for (int r = 0; r < ROWS; r++)
                wr[r] = w + (o0 + (o + r < rows ? o + r : rows - 1)) * I;
            for (int64_t b = 0; b < images; b++)
                for (int64_t c = 0; c < L; c += LANES) {
                    int64_t n = L - c < LANES ? L - c : LANES;
                    vf acc[ROWS];
                    chains(acc, wr, x + b * I, I, L, c, n);
                    for (int r = 0; r < ROWS && o + r < rows; r++)
                        for (int64_t t = 0; t < n; t++)
                            part[b * L + c + t][o + r] = acc[r][t];
                }
        }
        for (int64_t b = 0; b < images; b++) {
            int carried = 0;
            reduce(part + b * L, L, &carried, 1);
            vf sum = part[b * L] + load(bias + o0, rows);
            memcpy(out + b * O + o0, &sum, rows * sizeof(float));
        }
    }
}
