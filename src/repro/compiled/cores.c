/* The compiled engine's conv, FC and max-pool cores, one pass each
 * (repro.compiled.kernels.k_conv, k_fc and k_pool; built, cached and loaded
 * by repro.compiled.native; DESIGN.md section 12).
 *
 * conv_tree: a tile is LANES output rows (image, coordinate), one vector
 * lane each. Whole blocks of LANES images run as the block's images at one
 * coordinate, each window vector read in place from an image-minor copy of
 * the block; the other images run as LANES consecutive coordinates whose
 * (G, K) windows are gathered once, lanes minor. Either way every output
 * map runs its K products, the unpadded product tree and the bias-first
 * group chain on LANES-wide vectors, in the association of the interpreted
 * core's tree_reduce: level by level, left + right, an odd level's last
 * node carried as "node + 0.0" the first time only. The first four levels
 * of every aligned pair of blocks of 8 leaves are one register expression,
 * and only these pair sums go to memory; the leaves after the last pair
 * are the aligned subtrees of their count's bits, added in registers right
 * to left, and their sum stays in registers as the last node of every
 * level above, while the pair sums before it pair up in place. MAPS output
 * maps run side by side, so each window vector is loaded once per block of
 * maps; every map's own association is unchanged. Every block is MAPS
 * wide: a layer's last block ends at its last map and recomputes, without
 * keeping, the maps the block before it ran, and a layer of fewer than MAPS
 * maps runs a copy of its weights padded with its last map. A tile's sums,
 * one vector per map, are transposed in registers, 16 maps at a time, into
 * one vector per output row, and each row gets its maps as vector stores.
 * The image walk claims the lines of a tile's rows AHEAD tiles before it
 * stores them.
 *
 * fc_chains: the interleaved accumulators of the FC core. Input i feeds
 * lane i mod L; each lane is the sequential chain ((0 + w x_l) + w x_{l+L})
 * + ..., and the lanes meet in the same unpadded tree, then the bias.
 *
 * max_pool: per output row, the maximum over the window's kh input rows
 * along the whole row, LANES floats at a time whatever the map count, then
 * per output column the maximum over its kw chunks of maps; NaN wins every
 * comparison. Comparisons round nothing, so only a tie between -0.0 and
 * +0.0 depends on the order; k_pool settles those in numpy, as the
 * interpreted core does.
 *
 * Build with -ffp-contract=off and never -ffast-math: a fused multiply-add
 * or a re-associated sum changes bits. Where two NaNs meet, either payload
 * may come out, as in the interpreted cores' numpy: the engines' digest
 * (repro.dataflow.stable_digest) counts every NaN as one value.
 *
 * The object is built for one instruction set, the host's: with -mavx512f
 * a 16-lane vector is one zmm register; the baseline build lowers it to
 * narrower pieces. Nothing here dispatches at run time.
 */
#include <stdint.h>
#include <string.h>

#define LANES 16
/* Output maps whose trees run interleaved, sharing each window vector. */
#define MAPS 6
typedef float vf __attribute__((vector_size(LANES * 4)));
typedef int32_t vi __attribute__((vector_size(LANES * 4)));

#define INLINE static inline __attribute__((always_inline))

/* *s in every lane, bit for bit (0.0 + *s would turn -0.0 into +0.0). */
INLINE vf splat(const float *s)
{
    int32_t bits;
    memcpy(&bits, s, sizeof bits);
    return (vf)((vi){0} | bits);
}

/* The aligned subtree of map b over 1, 2, 4 or 8 leaves from leaf j of
 * the window vectors v (weights wb): the product tree's first levels, one
 * register expression. */
#define T1(j) (wb[j] * v[j])
#define T2(j) (T1(j) + T1((j) + 1))
#define T4(j) (T2(j) + T2((j) + 2))
#define T8(j) (T4(j) + T4((j) + 4))

/* The unpadded trees of `trees` interleaved trees (a block's MAPS maps, or
 * fc_chains' one lane tree) over n nodes in memory, tree b's node i at
 * node[i * trees + b], and a last node t[b] after them, level by level:
 * the nodes pair up in place, and t[b] is added to the node before it
 * where a level is even, or carried where it is odd ("+ 0.0", unless a
 * node below these levels was carried). Their sums end in t. */
INLINE void spine(vf *t, vf *node, int64_t n, int carried, const int trees)
{
    for (; n; n >>= 1) {
        for (int64_t i = 0; i < n >> 1; i++)
            for (int b = 0; b < trees; b++)
                node[i * trees + b] =
                    node[2 * i * trees + b] + node[(2 * i + 1) * trees + b];
        for (int b = 0; b < trees; b++)
            t[b] = n & 1 ? node[(n - 1) * trees + b] + t[b]
                         : carried ? t[b] : t[b] + 0.0f;
        carried |= !(n & 1);
    }
}

/* Window vector k of a tile: LANES floats at base + off[k] bytes, or at
 * base + k * sizeof(vf) when off is NULL (gathered windows, whose offsets
 * are computed rather than loaded). */
INLINE vf vec(const char *base, const int64_t *off, int64_t k)
{
    vf v;
    memcpy(&v, base + (off ? off[k] : k * (int64_t)sizeof(vf)), sizeof v);
    return v;
}

/* Tree nodes per map that group_trees stores for K leaves: one per aligned
 * pair of whole blocks of 8 (conv_scratch and conv_tree size them). */
INLINE int64_t tree_nodes(int64_t K)
{
    return K / 16;
}

/* The tail's aligned subtree of n leaves, if the tail's leaf count R has
 * bit n: it follows the tail's larger subtrees, and it is added to the
 * sums t of the tail's smaller ones, on its right. */
#define SUBTREE(n)                                                           \
    if (R & (n)) {                                                           \
        int64_t j = k + (R & -(2 * (n)));                                    \
        vf v[n];                                                             \
        for (int i = 0; i < (n); i++)                                        \
            v[i] = vec(base, off, k0 + j + i);                               \
        for (int b = 0; b < MAPS; b++) {                                     \
            const float *wb = w + b * GK + j;                                \
            t[b] = T##n(0) + t[b];                                           \
        }                                                                    \
    }

/* acc[b] + tree_reduce(w_b * x) over the K leaves of one group for the
 * MAPS maps whose weights are w_b = w + b * GK, leaf k's vector the tile's
 * vector k0 + k; `node` holds tree_nodes(K) * MAPS vectors.
 *
 * Each aligned pair of whole blocks of 8 leaves is one level-4 node of the
 * padded tree, summed in registers, and only these sums are stored. The
 * R < 16 leaves after them, the tail, split into the aligned subtrees of
 * R's set bits, largest first, and the padded tree adds those right to
 * left: the smallest to a pad zero (its carry) unless the tail is the
 * whole tree and a power of two wide, each other to the sum on its right.
 * So the smallest is added to +0.0 or, changing no bit, to -0.0; a one-leaf
 * tail is its product plus that zero. The tail's sum is the level-4 node
 * after the pairs (with no tail, the last pair is), and it stays in
 * registers up the spine. */
INLINE void group_trees(vf *restrict acc, vf *restrict node,
                        const char *restrict base, const int64_t *restrict off,
                        int64_t k0, const float *restrict w, int64_t K,
                        int64_t GK)
{
    int64_t n = 0, k = 0;
    for (; k + 16 <= K; k += 16, n++) {
        /* T8(0) + T8(8), one block of 8 at a time: 8 window vectors, the
         * first block's sums and the caller's MAPS sums fit in registers
         * together; 16 window vectors at once spill. */
        vf v[8], h[MAPS];
        for (int j = 0; j < 8; j++)
            v[j] = vec(base, off, k0 + k + j);
        for (int b = 0; b < MAPS; b++) {
            const float *wb = w + b * GK + k;
            h[b] = T8(0);
        }
        for (int j = 0; j < 8; j++)
            v[j] = vec(base, off, k0 + k + 8 + j);
        for (int b = 0; b < MAPS; b++) {
            const float *wb = w + b * GK + k + 8;
            node[n * MAPS + b] = h[b] + T8(0);
        }
    }
    int64_t R = K - k;
    int carried = R && (k || (R & (R - 1)));
    vf t[MAPS];
    if (R) {
        const float pad = carried ? 0.0f : -0.0f;
        for (int b = 0; b < MAPS; b++)
            t[b] = splat(&pad);
        SUBTREE(1);
        SUBTREE(2);
        SUBTREE(4);
        SUBTREE(8);
    } else {
        n--;
        for (int b = 0; b < MAPS; b++)
            t[b] = node[n * MAPS + b];
    }
    spine(t, node, n, carried, MAPS);
    for (int b = 0; b < MAPS; b++)
        acc[b] += t[b];
}

/* Groups [0, gn) of the MAPS maps whose sums are acc[0..MAPS): group g's
 * leaves are the tile's vectors k0 + g * K + k, its weight rows at
 * w + g * K, one every GK floats. The first `skip` maps keep their sums:
 * the block before this one ran them over these groups already. */
INLINE void map_block(vf *acc, vf *node, const char *base, const int64_t *off,
                      int64_t k0, const float *w, int64_t gn, int64_t GK,
                      int64_t K, int64_t skip)
{
    vf a[MAPS];
    for (int b = 0; b < MAPS; b++)
        a[b] = acc[b];
    for (int64_t g = 0; g < gn; g++)
        group_trees(a, node, base, off, k0 + g * K, w + g * K, K, GK);
    /* One test per map, not a loop from skip: the sums stay in registers. */
    for (int b = 0; b < MAPS; b++)
        if (b >= skip)
            acc[b] = a[b];
}

/* acc[o] = bias[o] + the group chain of map o's trees over one tile, whose
 * window vector (g, k) is at base + off[g * K + k] (see vec), for no maps
 * or at least MAPS (conv_tree pads a layer of fewer). Both walks run this
 * one body. */
INLINE void tile(vf *acc, vf *node, const char *base, const int64_t *off,
                 const float *w, const float *bias, int64_t G, int64_t K,
                 int64_t O)
{
    /* Groups go in chunks of about 16 KiB of windows, every output map
     * through one chunk before the next, so the chunk stays in L1. */
    int64_t chunk = K < 256 ? 256 / K : 1;
    for (int64_t o = 0; o < O; o++)
        acc[o] = splat(bias + o);
    for (int64_t g0 = 0; g0 < G; g0 += chunk) {
        int64_t gn = G - g0 < chunk ? G - g0 : chunk;
        /* A last block of fewer than MAPS maps moves back to end at map
         * O, over maps the block before it ran, whose sums it leaves. */
        for (int64_t o = 0; o < O; o += MAPS) {
            int64_t b0 = O - o < MAPS ? O - MAPS : o;
            map_block(acc + b0, node, base, off, g0 * K,
                      w + (b0 * G + g0) * K, gn, G * K, K, o - b0);
        }
    }
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

/* Floats from an image's first window element on the port with byte
 * strides s to its last, both included: 1 + sum (n - 1) * stride / 4 over
 * the five axes after the image's. That span is what the image walk
 * copies; 0 when it cannot: a negative stride or one that is not whole
 * floats, or images that overlap. */
static int64_t extent(const int64_t *s, int64_t rows, int64_t cols,
                      int64_t G, int64_t kh, int64_t kw)
{
    int64_t n[6] = {1, rows, cols, G, kh, kw}, e = 1;
    for (int a = 0; a < 6; a++) {
        if (s[a] < 0 || s[a] % 4)
            return 0;
        e += (n[a] - 1) * (s[a] / 4);
    }
    return s[0] >= 4 * e ? e : 0;
}

/* Floats per image of the image walk's copy, every port's extent in port
 * order; 0 when the call takes the coordinate walk throughout: fewer than
 * LANES images, a port extent() refuses, or ports whose row or column
 * strides differ (one tile offset must address every port). */
static int64_t image_floats(const int64_t *strides, int64_t n_ports,
                            int64_t images, int64_t rows, int64_t cols,
                            int64_t G, int64_t kh, int64_t kw)
{
    if (images < LANES || rows * cols * G * kh * kw == 0)
        return 0;
    int64_t F = 0;
    for (int64_t p = 0; p < n_ports; p++) {
        const int64_t *s = strides + 6 * p;
        int64_t e = extent(s, rows, cols, G, kh, kw);
        if (!e || s[1] != strides[1] || s[2] != strides[2])
            return 0;
        F += e;
    }
    return F;
}

/* Images [i0, i0 + LANES) of every port into c, image minor: port p's
 * float f of image i0 + t goes to lane t of c[at + f], at the extents of
 * the ports before p. */
INLINE void copy_block(vf *restrict c, const float *const *ports,
                       const int64_t *strides, int64_t n_ports, int64_t i0,
                       int64_t rows, int64_t cols, int64_t G, int64_t kh,
                       int64_t kw)
{
    for (int64_t p = 0; p < n_ports; p++) {
        const int64_t *s = strides + 6 * p;
        int64_t e = extent(s, rows, cols, G, kh, kw);
        const char *src = (const char *)ports[p] + i0 * s[0];
        /* LANES floats of each image at a time: one KiB of c, in L1. */
        for (int64_t f0 = 0; f0 < e; f0 += LANES) {
            int64_t m = e - f0 < LANES ? e - f0 : LANES;
            for (int t = 0; t < LANES; t++)
                for (int64_t f = 0; f < m; f++)
                    memcpy((float *)&c[f0 + f] + t,
                           src + t * s[0] + 4 * (f0 + f), sizeof(float));
        }
        c += e;
    }
}

/* Lane t of v[j] and lane j of v[t] trade places, for every j and t: four
 * butterfly stages, the stage of bit d swapping element (j, t) with
 * (j ^ d, t ^ d) wherever bit d of j and t differ. Shuffle indices past
 * LANES - 1 pick from the second vector. */
#define LO(d, t) ((t) & (d) ? LANES + (t) - (d) : (t))
#define HI(d, t) ((t) & (d) ? LANES + (t) : (t) + (d))
#define MASK(f, d)                                                           \
    ((vi){f(d, 0), f(d, 1), f(d, 2), f(d, 3), f(d, 4), f(d, 5), f(d, 6),    \
          f(d, 7), f(d, 8), f(d, 9), f(d, 10), f(d, 11), f(d, 12), f(d, 13), \
          f(d, 14), f(d, 15)})
#define BUTTERFLY(v, d)                                                      \
    for (int j = 0; j < LANES; j++)                                          \
        if (!(j & (d))) {                                                    \
            vf a = v[j], b = v[j + (d)];                                     \
            v[j] = __builtin_shuffle(a, b, MASK(LO, d));                     \
            v[j + (d)] = __builtin_shuffle(a, b, MASK(HI, d));               \
        }

INLINE void transpose(vf *v)
{
    BUTTERFLY(v, 8);
    BUTTERFLY(v, 4);
    BUTTERFLY(v, 2);
    BUTTERFLY(v, 1);
}

/* Tile lane t's sums, lane t of acc[0..O), to out row first + t * step for
 * t < n: LANES maps at a time, transposed in registers, one vector store
 * per row. The chunks go last to first, so a last chunk of m < LANES maps
 * may be stored whole: its extra floats land on the rows after, which the
 * pass stores later (the chunks before it, this tile's or a later tile's
 * rows), as long as they end by float `end` of out, up to which the pass
 * stores every float after the tile's last row. Every row of a tile has
 * as much room as its last row or more, so where the last row's extra
 * floats would pass `end`, every row stores just its m floats. A partial
 * chunk's missing maps repeat its last one, so the extra floats hold sums
 * of other maps until their own rows are stored. Not inlined: the store
 * gets the registers to itself. */
static __attribute__((noinline)) void
store(float *out, const vf *acc, int64_t O, int64_t first, int64_t step,
      int64_t n, int64_t end)
{
    for (int64_t o0 = (O - 1) / LANES * LANES; o0 >= 0; o0 -= LANES) {
        int64_t m = O - o0 < LANES ? O - o0 : LANES;
        float *row = out + first * O + o0;
        vf r[LANES];
        for (int j = 0; j < LANES; j++)
            r[j] = acc[o0 + (j < m ? j : m - 1)];
        transpose(r);
        if ((first + (n - 1) * step) * O + o0 + LANES <= end) {
#pragma GCC unroll 16
            for (int t = 0; t < LANES; t++)
                if (t < n)
                    memcpy(row + t * step * O, &r[t], sizeof(vf));
        } else {
            for (int64_t t = 0; t < n; t++)
                memcpy(row + t * step * O, &r[t], m * sizeof(float));
        }
    }
}

/* The image walk claims the output lines of tile i + AHEAD for writing
 * before it stores tile i: a tile's LANES rows lie C * O floats apart,
 * each in lines no store has touched yet, a pattern the hardware
 * prefetcher does not follow. The coordinate walk's rows are contiguous,
 * and the prefetcher streams them. */
#define AHEAD 2

/* Ask for write ownership of every cache line of the LANES rows of O
 * floats at out row first + t * step. A prefetch never faults, and it
 * changes no value. */
INLINE void own_rows(const float *out, int64_t O, int64_t first,
                     int64_t step)
{
    for (int t = 0; t < LANES; t++) {
        const float *row = out + (first + t * step) * O;
        for (uintptr_t line = (uintptr_t)row & -(uintptr_t)64;
             line < (uintptr_t)(row + O); line += 64)
            __builtin_prefetch((const void *)line, 1, 3);
    }
}

/* Maps conv_tree runs for O output maps: a layer of fewer than MAPS runs
 * one whole block. */
static int64_t maps_run(int64_t O)
{
    return O && O < MAPS ? MAPS : O;
}

/* LANES, the image walk's block of images: k_conv splits a call's images
 * among threads only at whole blocks (native.split_images), so every
 * thread's call walks its images as the whole call would. */
int64_t lanes(void)
{
    return LANES;
}

/* Floats of scratch conv_tree needs for the same geometry: the image
 * walk's copy of one block of LANES images or the coordinate walk's
 * gathered windows, whichever is larger (one walk follows the other); the
 * tree nodes of one block of maps; the sums of maps_run(O) maps; the image
 * walk's G * K window offsets (int64); for fewer than MAPS maps, the
 * weights and biases of MAPS maps; and LANES floats to align them. */
int64_t conv_scratch(const int64_t *strides, int64_t n_ports, int64_t images,
                     int64_t rows, int64_t cols, int64_t G, int64_t kh,
                     int64_t kw, int64_t O)
{
    int64_t K = n_ports * kh * kw,
            F = image_floats(strides, n_ports, images, rows, cols, G, kh, kw);
    int64_t vectors = (F > G * K ? F : G * K) + tree_nodes(K) * MAPS +
                      maps_run(O) + 1;
    return vectors * LANES + 2 * G * K +
           (maps_run(O) > O ? MAPS * (G * K + 1) : 0);
}

/* out[lane, o] for every lane (images x rows x cols, row-major) and
 * output map o, before the activation. w is the layer's C-ordered
 * (O, G * n_ports, kh, kw) weight, read in place as (O, G, K) with K =
 * n_ports*kh*kw: port p carries maps p, p + n_ports, ..., so map o's
 * group g is the K floats at w + (o * G + g) * K, port-major. `scratch`
 * holds conv_scratch(strides, ...) floats.
 *
 * The image walk takes whole blocks of LANES images, when image_floats
 * allows: each block is copied, [float][LANES images] per port, and a tile
 * is the block's images at one coordinate, so the window vector of element
 * (g, ky, kx) lies LANES times its byte offset in the image past the
 * tile's coordinate, read in place. The coordinate walk takes the other
 * images: a tile is LANES consecutive lanes, across rows and images,
 * gathered into x, and the last tile repeats its last lane. */
void conv_tree(const float *const *ports, const int64_t *strides,
               int64_t n_ports, int64_t images, int64_t rows, int64_t cols,
               int64_t G, int64_t kh, int64_t kw, int64_t O, const float *w,
               const float *bias, float *out, float *scratch)
{
    int64_t C = rows * cols, lanes = images * C, K = n_ports * kh * kw,
            F = image_floats(strides, n_ports, images, rows, cols, G, kh, kw),
            walked = F ? images / LANES * C : 0;
    vf *x = (vf *)(((uintptr_t)scratch + sizeof(vf) - 1) & -sizeof(vf));
    vf *node = x + (F > G * K ? F : G * K), *acc = node + tree_nodes(K) * MAPS;
    int64_t *off = (int64_t *)(acc + maps_run(O));
    /* Fewer than MAPS maps run a copy of the weights and biases, its maps
     * past the last a copy of the last; their sums are never stored. */
    if (maps_run(O) > O) {
        float *wp = (float *)(off + G * K), *bp = wp + MAPS * G * K;
        for (int64_t o = 0; o < MAPS; o++) {
            int64_t from = o < O ? o : O - 1;
            memcpy(wp + o * G * K, w + from * G * K, G * K * sizeof(float));
            bp[o] = bias[from];
        }
        w = wp;
        bias = bp;
    }
    /* The image walk's offsets: port p's copy starts after the extents of
     * the ports before it. */
    for (int64_t p = 0, at = 0; walked && p < n_ports; p++) {
        const int64_t *s = strides + 6 * p;
        for (int64_t g = 0; g < G; g++)
            for (int64_t ky = 0; ky < kh; ky++)
                for (int64_t kx = 0; kx < kw; kx++)
                    off[g * K + (p * kh + ky) * kw + kx] =
                        at * (int64_t)sizeof(vf) +
                        LANES * (g * s[3] + ky * s[4] + kx * s[5]);
        at += extent(s, rows, cols, G, kh, kw);
    }
    /* Tiles [0, walked) are the image walk's, block i / C at coordinate
     * i % C; they cover lanes [0, walked * LANES), so every later tile i
     * starts at lane i * LANES. Lane t of a tile is output row first +
     * t * step. After the tile's last row, the pass stores the rest of
     * that row's image in the image walk, the rest of the call in the
     * coordinate walk: up to float `end`. */
    for (int64_t i = 0; i * LANES < lanes; i++) {
        int64_t first, step, n, end;
        if (i < walked) {
            int64_t c = i % C, i0 = i / C * LANES;
            if (c == 0)
                copy_block(x, ports, strides, n_ports, i0, rows, cols, G, kh,
                           kw);
            tile(acc, node,
                 (const char *)x +
                     LANES * (c / cols * strides[1] + c % cols * strides[2]),
                 off, w, bias, G, K, maps_run(O));
            first = i0 * C + c;
            step = C;
            n = LANES;
            end = (i0 + LANES) * C * O;
            if (i + AHEAD < walked)
                own_rows(out, O, (i + AHEAD) / C * LANES * C + (i + AHEAD) % C,
                         C);
        } else {
            first = i * LANES;
            gather(x, ports, strides, n_ports, first, lanes, rows, cols, G,
                   kh, kw);
            tile(acc, node, (const char *)x, NULL, w, bias, G, K,
                 maps_run(O));
            step = 1;
            n = lanes - first < LANES ? lanes - first : LANES;
            end = lanes * O;
        }
        store(out, acc, O, first, step, n, end);
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
 * spine, its last lane the register node. Each group of ROWS weight rows
 * runs over every image while it is in L1; the rows past the last repeat
 * it, and their sums are dropped. */
void fc_chains(const float *w, const float *x, int64_t images, int64_t I,
               int64_t O, int64_t L, const float *bias, float *out,
               float *scratch)
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
            vf sum = part[b * L + L - 1];
            spine(&sum, part + b * L, L - 1, 0, 1);
            sum += load(bias + o0, rows);
            memcpy(out + b * O + o0, &sum, rows * sizeof(float));
        }
    }
}

/* -- max pooling ---------------------------------------------------------- */

/* The larger of a and b in every lane, NaN wherever either is: a where
 * a >= b or a is a NaN, else b. A tie between -0.0 and +0.0 gives a. */
INLINE vf vmax(vf a, vf b)
{
    vi a_wins = (a >= b) | (a != a);
    return (vf)((a_wins & (vi)a) | (~a_wins & (vi)b));
}

/* Floats of one input row that the windows of an output row read: from
 * the row's first window element to its last, for maps contiguous and
 * byte strides s (see max_pool). */
static int64_t pool_span(const int64_t *s, int64_t cols, int64_t G,
                         int64_t kw)
{
    return ((cols - 1) * s[2] + (kw - 1) * s[5]) / 4 + G;
}

/* Floats of scratch max_pool needs for the same geometry: one row of
 * vertical maxima, rounded up to whole vectors, and one vector past it
 * that a last partial chunk of maps reads. */
int64_t pool_scratch(const int64_t *strides, int64_t images, int64_t rows,
                     int64_t cols, int64_t G, int64_t kh, int64_t kw)
{
    (void)images, (void)rows, (void)kh;
    return (pool_span(strides, cols, G, kw) + 2 * LANES - 1) / LANES * LANES;
}

/* out[image, row, col, g] = the maximum of window (image, row, col, g),
 * NaN-propagating; a zero maximum may be either zero (the caller settles
 * those). Element (image, row, col, g, ky, kx) of the windows is at `in`
 * plus the dot product with the six byte strides, which are whole,
 * non-negative floats with the maps contiguous (strides[3] == 4, or
 * G == 1). out is C-ordered (images, rows, cols, G); `scratch` holds
 * pool_scratch(strides, ...) floats.
 *
 * Each output row is two passes. The vertical pass takes the maximum over
 * the kh input rows under it, LANES floats at a time along the span of
 * the row its windows read, whatever G is. The horizontal pass takes, for
 * each column and chunk of LANES maps, the maximum over the kw chunks of
 * that result under the window. Columns, then rows, are stored in
 * increasing order, so a last chunk of m < LANES maps is stored whole
 * wherever that store ends inside out: its extra floats land on maps the
 * pass stores later. Only where it would pass the end are just its m
 * floats stored. */
void max_pool(const float *in, const int64_t *strides, int64_t images,
              int64_t rows, int64_t cols, int64_t G, int64_t kh, int64_t kw,
              float *out, float *scratch)
{
    const int64_t *s = strides;
    /* Column and window-column strides in floats. */
    int64_t sx = s[2] / 4, sk = s[5] / 4, span = pool_span(s, cols, G, kw),
            whole = (span + LANES - 1) / LANES * LANES;
    const float *end = out + images * rows * cols * G;
    float *v = scratch;
    /* The vector past the row that a last chunk of maps reads: defined,
     * though those lanes are never kept. */
    memset(v + whole, 0, LANES * sizeof(float));
    for (int64_t i = 0; i < images; i++)
        for (int64_t y = 0; y < rows; y++) {
            const char *row = (const char *)in + i * s[0] + y * s[1];
            for (int64_t j = 0; j < span; j += LANES) {
                int64_t n = span - j;
                vf m, r;
                if (n >= LANES)
                    memcpy(&m, row + 4 * j, sizeof m);
                else
                    m = load((const float *)(row + 4 * j), n);
                for (int64_t ky = 1; ky < kh; ky++) {
                    const char *p = row + ky * s[4] + 4 * j;
                    if (n >= LANES)
                        memcpy(&r, p, sizeof r);
                    else
                        r = load((const float *)p, n);
                    m = vmax(m, r);
                }
                memcpy(v + j, &m, sizeof m);
            }
            float *o = out + (i * rows + y) * cols * G;
            for (int64_t x = 0; x < cols; x++, o += G)
                for (int64_t g0 = 0; g0 < G; g0 += LANES) {
                    const float *c = v + x * sx + g0;
                    vf m, r;
                    memcpy(&m, c, sizeof m);
                    for (int64_t kx = 1; kx < kw; kx++) {
                        memcpy(&r, c + kx * sk, sizeof r);
                        m = vmax(m, r);
                    }
                    if (o + g0 + LANES <= end) {
                        memcpy(o + g0, &m, sizeof m);
                    } else {
                        for (int t = 0; t < LANES; t++)
                            if (g0 + t < G)
                                o[g0 + t] = m[t];
                    }
                }
        }
}
