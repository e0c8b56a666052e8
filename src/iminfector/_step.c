/* The T and b_t update of one classify step, fused into one pass.
 *
 * For row-major T (E x N), O_u (E), g (N) and b_t (N):
 *
 *     T[i][j] = T[i][j] - ((O_u[i] * g[j]) * lr)
 *     b_t[j]  = b_t[j] - lr * g[j]
 *
 * These are the IEEE operations, in the same order, that numpy's outer
 * product, in-place scaling and subtraction perform, so the results are
 * bitwise the same. That holds only when the compiler contracts no
 * multiply-add into an FMA and reassociates nothing: build with
 * -ffp-contract=off and without -ffast-math.
 *
 * On x86-64 with glibc the library holds one copy of the loops per
 * instruction set, AVX-512F, AVX2 and baseline x86-64, and glibc's ifunc
 * resolver picks the widest one the CPU runs when the library is loaded.
 * Each vector lane does the same rounded multiply, multiply and subtract
 * as the scalar loop, so every copy gives the same bits, and the library
 * does not depend on the host that built it. Other targets build one
 * copy.
 *
 * Returns max|O_u[i]|, or NaN if O_u holds a NaN, as numpy's
 * maximum.reduce of |O_u| does. The four arrays must not overlap.
 */
#include <math.h>
#include <stddef.h>

#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif

CLONES
double fused_t_update(double *restrict T, const double *restrict o_u,
                      const double *restrict g, double *restrict b_t,
                      double lr, size_t E, size_t N)
{
    double max_abs = 0.0;
    for (size_t i = 0; i < E; i++) {
        const double o = o_u[i];
        double *restrict row = T + i * N;
        for (size_t j = 0; j < N; j++)
            row[j] = row[j] - ((o * g[j]) * lr);
        const double a = fabs(o);
        /* once max_abs is NaN no comparison is true, so it stays NaN */
        if (a > max_abs || isnan(a))
            max_abs = a;
    }
    for (size_t j = 0; j < N; j++)
        b_t[j] = b_t[j] - lr * g[j];
    return max_abs;
}

/* The instruction set of the fused_t_update clone that runs: "avx512f",
 * "avx2" or "baseline". It carries the same clones, so the resolver picks
 * the same one for it: the first, in the order listed, that the CPU
 * supports. Each clone tests the CPU in that order, so the one picked
 * returns its own name. */
CLONES
const char *step_isa(void)
{
#if defined(__x86_64__) && defined(__GLIBC__)
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "baseline";
}
