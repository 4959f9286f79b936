/* The compiled engine's conv core in one pass (repro.compiled.kernels.k_conv;
 * built, cached and loaded by repro.compiled.native; DESIGN.md section 12).
 *
 * For a tile of LANES output coordinates the (G, K) windows are gathered
 * once, lanes minor. Then every output map runs its K products, the
 * unpadded product tree and the bias-first group chain on LANES-wide
 * vectors, in the association of the interpreted core's tree_reduce:
 * level by level, left + right, an odd level's last node carried as
 * "node + 0.0" the first time only. The first three levels of every
 * aligned block of 8 leaves are one expression; the levels above reduce
 * the block sums in place.
 *
 * Build with -ffp-contract=off and never -ffast-math: a fused multiply-add
 * or a re-associated sum changes bits.
 */
#include <stdint.h>
#include <string.h>

#define LANES 16
typedef float vf __attribute__((vector_size(LANES * 4)));
typedef int32_t vi __attribute__((vector_size(LANES * 4)));

const int conv_tree_lanes = LANES;

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

/* isnan(a) ? a : b. Where two NaNs meet, a + b keeps the payload of
 * whichever operand the compiler put first; a + first(a, b) keeps a's
 * whatever the order. The NaN test is integer arithmetic (|a| > inf as
 * bits): a float compare wider than the target's registers would be
 * lowered lane by lane. */
INLINE vf first(vf a, vf b)
{
    vi m = (0x7f800000 - ((vi)a & 0x7fffffff)) >> 31;
    return (vf)(((vi)a & m) | ((vi)b & ~m));
}

INLINE vf add(vf a, vf b, int nan) { return nan ? a + first(a, b) : a + b; }

/* *s in every lane, bit for bit (0.0 + *s would turn -0.0 into +0.0). */
INLINE vf splat(const float *s)
{
    int32_t bits;
    memcpy(&bits, s, sizeof bits);
    return (vf)((vi){0} | bits);
}

/* w * x, the weight leading. */
INLINE vf mul(const float *w, vf x, int nan)
{
    return nan ? *w * first(splat(w), x) : *w * x;
}

#define PAIR(j) add(mul(w + j, x[j], nan), mul(w + j + 1, x[j + 1], nan), nan)

/* The unpadded tree over v[0..width), in place, into v[0]. */
INLINE void reduce(vf *v, int64_t width, int *carried, int nan)
{
    while (width > 1) {
        int64_t half = width >> 1;
        for (int64_t i = 0; i < half; i++)
            v[i] = add(v[2 * i], v[2 * i + 1], nan);
        if (width & 1) {
            v[half] = *carried ? v[width - 1] : v[width - 1] + 0.0f;
            *carried = 1;
        }
        width -= half;
    }
}

/* acc + tree_reduce(w * x) over the K leaves of one group; `node` holds
 * K / 8 + 1 vectors. */
INLINE void group_tree(vf *acc, vf *node, const vf *x, const float *w,
                       int64_t K, int nan)
{
    int64_t n = 0, k = 0;
    int carried = 0;
    for (; k + 8 <= K; k += 8, x += 8, w += 8)
        node[n++] = add(add(PAIR(0), PAIR(2), nan), add(PAIR(4), PAIR(6), nan),
                        nan);
    if (k < K) {
        /* The last, partial block: its own tree, then carried up to the
         * block level unless it is the whole tree. */
        vf p[8];
        for (int64_t j = 0; j < K - k; j++)
            p[j] = mul(w + j, x[j], nan);
        reduce(p, K - k, &carried, nan);
        if (n && !carried) {
            p[0] = p[0] + 0.0f;
            carried = 1;
        }
        node[n++] = p[0];
    }
    reduce(node, n, &carried, nan);
    *acc = add(*acc, node[0], nan);
}

/* Gather the windows of lanes [lane, lane + LANES) into x[(g, k)], one
 * vector of lanes per window element. Port p's element (image, row, col,
 * g, ky, kx) is at ports[p] plus the dot product with its six byte
 * strides. Lanes past the last repeat it: their values are never stored. */
INLINE void gather(vf *x, const float *const *ports, const int64_t *strides,
                   int64_t n_ports, int64_t lane, int64_t lanes, int64_t rows,
                   int64_t cols, int64_t G, int64_t kh, int64_t kw)
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
        int64_t off[LANES];
        for (int t = 0; t < LANES; t++)
            off[t] = at[t][0] * s[0] + at[t][1] * s[1] + at[t][2] * s[2];
        for (int64_t g = 0; g < G; g++)
            for (int64_t ky = 0; ky < kh; ky++)
                for (int64_t kx = 0; kx < kw; kx++) {
                    const char *src = (const char *)ports[p] + g * s[3] +
                                      ky * s[4] + kx * s[5];
                    float *dst = (float *)&x[g * K + (p * kh + ky) * kw + kx];
                    for (int t = 0; t < LANES; t++)
                        memcpy(dst + t, src + off[t], sizeof(float));
                }
    }
}

INLINE void tiles(const float *const *ports, const int64_t *strides,
                  int64_t n_ports, int64_t lanes, int64_t rows, int64_t cols,
                  int64_t G, int64_t kh, int64_t kw, int64_t O, const float *w,
                  const float *bias, float *out, vf *x, int nan)
{
    int64_t K = n_ports * kh * kw;
    /* Groups go in chunks of about 16 KiB of windows, every output map
     * through one chunk before the next, so the chunk stays in L1. */
    int64_t chunk = K < 256 ? 256 / K : 1;
    vf *node = x + G * K, *acc = node + K / 8 + 1;
    for (int64_t lane = 0; lane < lanes; lane += LANES) {
        gather(x, ports, strides, n_ports, lane, lanes, rows, cols, G, kh, kw);
        for (int64_t o = 0; o < O; o++)
            acc[o] = splat(bias + o);
        for (int64_t g0 = 0; g0 < G; g0 += chunk)
            for (int64_t o = 0; o < O; o++)
                for (int64_t g = g0; g < G && g < g0 + chunk; g++)
                    group_tree(acc + o, node, x + g * K, w + (g * O + o) * K, K,
                               nan);
        for (int64_t t = 0; t < LANES && lane + t < lanes; t++)
            for (int64_t o = 0; o < O; o++)
                out[(lane + t) * O + o] = acc[o][t];
    }
}

/* out[lane, o] for every lane (images x rows x cols, row-major) and
 * output map o, before the activation. w is (G, O, K) with K =
 * n_ports*kh*kw, port-major. `scratch` holds G*K + K/8 + 1 + O vectors of
 * LANES floats, plus LANES floats to align them. `nan_rule` makes every
 * add and multiply keep its first operand's NaN payload; without it a NaN
 * meeting another NaN comes out of either operand. */
CLONES void conv_tree(const float *const *ports, const int64_t *strides,
                      int64_t n_ports, int64_t images, int64_t rows,
                      int64_t cols, int64_t G, int64_t kh, int64_t kw,
                      int64_t O, const float *w, const float *bias,
                      int nan_rule, float *out, float *scratch)
{
    int64_t lanes = images * rows * cols;
    vf *x = (vf *)(((uintptr_t)scratch + sizeof(vf) - 1) & -sizeof(vf));
    if (nan_rule)
        tiles(ports, strides, n_ports, lanes, rows, cols, G, kh, kw, O, w,
              bias, out, x, 1);
    else
        tiles(ports, strides, n_ports, lanes, rows, cols, G, kh, kw, O, w,
              bias, out, x, 0);
}
