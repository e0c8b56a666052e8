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
 * Returns max|O_u[i]|, or NaN if O_u holds a NaN, as numpy's
 * maximum.reduce of |O_u| does. The four arrays must not overlap.
 */
#include <math.h>
#include <stddef.h>

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
