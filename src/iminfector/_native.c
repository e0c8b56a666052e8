/* The package's native library: the training loop, which takes an
 * epoch's classify and size steps, with the classify step's T update,
 * the context draws of the training stream, a scanner and a
 * writer for the cascade text format, a scanner for edge lists, and the
 * canonical events of raw cascades, which edge lists take too.
 * _native.py builds it on first use against this interpreter's Python.h
 * and numpy's headers and loads it once, as the extension module
 * iminfector._native_lib. Its functions take arrays, numbers and bit
 * generators only, no address, capacity or other Python object, and all
 * of them keep the one argument contract set out under "Arguments" below;
 * each sizes its work by its arrays' lengths. Of numpy's C API it uses
 * only the ufunc type and its layout: the loop calls numpy's own float64
 * inner loops and its BLAS's dgemv and ddot directly, and model.py sends
 * it only the models of a shape where a self-check of the loop gives the
 * numpy steps' bits; the context draws call add's loop the same way, and a bit
 * generator's next_double through numpy/random/bitgen.h.
 *
 * ---- The T and b_t update of one classify step, fused into one pass ----
 *
 * For row-major T (E x N, its rows ld items apart), O_u (E), g (N) and
 * b_t (N):
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
 * copy. The module's isa names the copy picked; fused_t_update stays
 * exported so that the copy it resolves to can be checked against isa.
 *
 * It returns nothing: the loop takes max|O_u| for its bound with max_abs
 * before the update. The four arrays must not overlap.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* the ufunc object's layout and NPY_DOUBLE; the module imports only the
 * ufunc API, and that only to tell a ufunc from another object */
#define NPY_NO_DEPRECATED_API NPY_API_VERSION
#define NO_IMPORT_ARRAY
#include <numpy/ndarraytypes.h>
#include <numpy/random/bitgen.h>
#include <numpy/ufuncobject.h>

#include <dlfcn.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif

CLONES
void fused_t_update(double *restrict T, const double *restrict o_u, const double *restrict g,
                    double *restrict b_t, double lr, size_t E, size_t N, size_t ld)
{
    for (size_t i = 0; i < E; i++) {
        const double o = o_u[i];
        double *restrict row = T + i * ld;
        for (size_t j = 0; j < N; j++)
            row[j] = row[j] - ((o * g[j]) * lr);
    }
    for (size_t j = 0; j < N; j++)
        b_t[j] = b_t[j] - lr * g[j];
}

/* ---- numpy's own functions, called directly ----
 *
 * Five calls of the classify step have numpy's rounding: matmul for O_u T
 * and for T g, exp, add.reduce and log; and two of the size step: matmul
 * for O_u C and exp on a scalar. numpy's matmul multiplies a vector by a
 * matrix, and a matrix by a vector, with its BLAS's cblas_dgemv, and a
 * vector by a vector with its cblas_ddot, adding the product to 0.0; its
 * exp, add and log run the float64 inner loop of their ufunc, on a scalar
 * too. The module's exec slot finds these functions, and the loop calls
 * them itself, with the arguments numpy 2 passes them for the steps'
 * float64 arrays, all contiguous but T, whose rows lie ld items apart (ld
 * = N for a packed T):
 *
 *   O_u T   dgemv(RowMajor, Trans, E, N, 1, T, ld, O_u, 1, 0, phi, 1)
 *   T g     dgemv(ColMajor, Trans, N, E, 1, T, ld, g, 1, 0, grad, 1), the
 *           RowMajor NoTrans product of T and g
 *   exp     exp's loop on (phi, phi): N entries, steps (8, 8); on a
 *           scalar, the same loop on one entry
 *   sum     add's loop in reduce form on (sum, phi, sum): N entries,
 *           steps (0, 8, 0), sum starting at -0.0
 *   log     log's loop on one entry
 *   O_u C   0.0 + ddot(E, O_u, 1, C, 1), C all ones
 *
 * So the bits are numpy's, with no Python call, argument parsing or ufunc
 * dispatch in between. numpy takes dgemv only for some shapes (an E or N
 * of 1 goes elsewhere, and the loop refuses it), and its own rules pick
 * the loop and the start of the sum: so model.py takes the numpy step
 * where a self-check of the loop at the model's E and N fails.
 * A direct call sets no numpy error state and issues no warning; train
 * runs the loop with numpy's overflow, invalid and divide warnings off
 * anyway.
 *
 * dgemv and ddot are scipy_cblas_dgemv64_ and scipy_cblas_ddot64_, the
 * ILP64 symbols of the scipy-openblas library that numpy's wheels link,
 * found through a handle on numpy's _multiarray_umath. Each loop is the
 * first all-float64 entry of its ufunc's functions and data, the one
 * numpy's default loop selector picks. If any of them is missing,
 * train_pairs and draw_contexts refuse every call, as they refuse arrays
 * they cannot take: train takes the numpy steps and the stream draws
 * through rng.choice. The module's blas_core names the kernel set
 * OpenBLAS picked for this CPU, or is None.
 */

typedef void dgemv_fn(int order, int trans, int64_t m, int64_t n, double alpha, const double *a,
                      int64_t lda, const double *x, int64_t incx, double beta, double *y,
                      int64_t incy);
typedef double ddot_fn(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);
typedef const char *corename_fn(void);
enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 }; /* cblas.h's values */

struct ufunc_loop {
    PyUFuncGenericFunction fn;
    void *data;
};

/* Set by the exec slot; dgemv is NULL unless every function was found. */
static struct {
    dgemv_fn *dgemv;
    ddot_fn *ddot;
    struct ufunc_loop exp, add, log;
} numpy_own;

/* out (N) = x (E) times a (E x N, rows ld apart), as np.matmul(x, a, out=out) */
static void vector_matrix(const double *x, const double *a, double *out, size_t E, size_t N,
                          size_t ld)
{
    numpy_own.dgemv(ROW_MAJOR, TRANS, (int64_t)E, (int64_t)N, 1.0, a, (int64_t)ld, x, 1, 0.0,
                    out, 1);
}

/* out (E) = a (E x N, rows ld apart) times x (N), as np.matmul(a, x, out=out) */
static void matrix_vector(const double *a, const double *x, double *out, size_t E, size_t N,
                          size_t ld)
{
    numpy_own.dgemv(COL_MAJOR, TRANS, (int64_t)N, (int64_t)E, 1.0, a, (int64_t)ld, x, 1, 0.0,
                    out, 1);
}

/* x (E) times y (E), as np.matmul(x, y) */
static double vector_vector(const double *x, const double *y, size_t E)
{
    return 0.0 + numpy_own.ddot((int64_t)E, x, 1, y, 1);
}

/* out = f(x) over n entries, as np.exp(x, out) or np.log(x, out) */
static void unary(const struct ufunc_loop *f, const double *x, double *out, size_t n)
{
    char *args[] = {(char *)x, (char *)out};
    const npy_intp count = (npy_intp)n, steps[] = {sizeof *x, sizeof *out};
    f->fn(args, &count, steps, f->data);
}

/* np.add.reduce of x's n entries */
static double add_reduce(const double *x, size_t n)
{
    double sum = -0.0;
    char *args[] = {(char *)&sum, (char *)x, (char *)&sum};
    const npy_intp count = (npy_intp)n, steps[] = {0, sizeof *x, 0};
    numpy_own.add.fn(args, &count, steps, numpy_own.add.data);
    return sum;
}

/* The first loop of numpy.name, a ufunc of nargs operands, whose operands
 * are all float64; 0, or -1 with no Python error set. */
static int find_loop(PyObject *numpy, const char *name, int nargs, struct ufunc_loop *loop)
{
    PyObject *obj = PyObject_GetAttrString(numpy, name);
    int found = -1;
    if (obj && PyObject_TypeCheck(obj, &PyUFunc_Type) && ((PyUFuncObject *)obj)->nargs == nargs) {
        const PyUFuncObject *ufunc = (const PyUFuncObject *)obj;
        for (int i = 0; i < ufunc->ntypes && found < 0; i++) {
            int k = 0;
            while (k < nargs && ufunc->types[i * nargs + k] == NPY_DOUBLE)
                k++;
            if (k == nargs)
                found = i;
        }
        if (found >= 0) {
            loop->fn = ufunc->functions[found];
            loop->data = ufunc->data ? ufunc->data[found] : NULL;
        }
    }
    PyErr_Clear();
    /* numpy keeps its ufuncs, and so their loops, while the process runs */
    Py_XDECREF(obj);
    return found >= 0 && loop->fn ? 0 : -1;
}

/* Finds numpy's dgemv and ddot, its exp, add and log loops and its BLAS's
 * kernel set, and sets the module's blas_core; -1 with a Python error set
 * if it cannot set it, else 0. */
static int find_numpy_own(PyObject *module)
{
    dgemv_fn *dgemv = NULL;
    ddot_fn *ddot = NULL;
    const char *core = NULL;
    PyObject *numpy = PyImport_ImportModule("numpy");
    PyObject *umath = numpy ? PyImport_ImportModule("numpy._core._multiarray_umath") : NULL;
    PyObject *file = umath ? PyObject_GetAttrString(umath, "__file__") : NULL;
    const char *path = file ? PyUnicode_AsUTF8(file) : NULL;
    void *handle = path ? dlopen(path, RTLD_LAZY | RTLD_NOLOAD) : NULL;
    if (handle) {
        dgemv = (dgemv_fn *)dlsym(handle, "scipy_cblas_dgemv64_");
        ddot = (ddot_fn *)dlsym(handle, "scipy_cblas_ddot64_");
        corename_fn *corename = (corename_fn *)dlsym(handle, "scipy_openblas_get_corename64_");
        if (!corename)
            corename = (corename_fn *)dlsym(handle, "openblas_get_corename");
        core = corename ? corename() : NULL;
        /* numpy's import holds the library open, so its functions stay */
        dlclose(handle);
    }
    PyErr_Clear();
    const int found = dgemv && ddot && numpy && _import_umath() == 0 &&
                      !find_loop(numpy, "exp", 2, &numpy_own.exp) &&
                      !find_loop(numpy, "add", 3, &numpy_own.add) &&
                      !find_loop(numpy, "log", 2, &numpy_own.log);
    PyErr_Clear();
    numpy_own.dgemv = found ? dgemv : NULL;
    numpy_own.ddot = ddot;
    Py_XDECREF(file);
    Py_XDECREF(umath);
    Py_XDECREF(numpy);
    PyObject *name = core ? PyUnicode_FromString(core) : Py_NewRef(Py_None);
    const int failed = !name || PyModule_AddObjectRef(module, "blas_core", name) < 0;
    Py_XDECREF(name);
    return failed ? -1 : 0;
}

/* ---- Arguments ----
 *
 * Every function keeps one contract on its arguments:
 *
 *   - numbers: an index is a Python int, read as -1 when it is negative or
 *     past long long; a real is a Python float; a generator is a numpy
 *     BitGenerator, read as the bitgen_t of its "BitGenerator" capsule,
 *     and private to the call, so the function takes no lock on it;
 *   - arrays: each is an aligned, C-contiguous buffer of its item kind and
 *     number of dimensions, writable if the function writes it; but the
 *     rows of a ROWS array (train_pairs' T) may lie a stride apart, a
 *     multiple of the item size and at least one row;
 *   - aliasing: no array the function writes shares memory with another
 *     array of the call, the memory of each running from its first item to
 *     the end of its last, padding included; arrays it only reads may share
 *     memory;
 *   - refusal: a call of another number of arguments, or with a number
 *     argument of another type, is a TypeError, raised before any array is
 *     read. An array that breaks the contract is refused: the function
 *     returns its refusal value (None, False, -1 or a give-up) having
 *     written nothing, and its caller takes the Python path.
 *
 * Each function lists every argument, in order, in one table of params,
 * and take_args reads them as the table says: it checks the count, reads
 * the numbers in argument order, takes the arrays, and refuses a writable
 * array that overlaps another. The function then checks the lengths and
 * values it needs, and releases the views either way.
 */

/* The kinds of argument: arrays of five kinds, whose struct formats and
 * item sizes follow (ROWS: float64 rows that may lie a stride apart), then
 * three kinds of number. */
enum kind { BYTE, I32, I64, F64, ROWS, INDEX, REAL, GENERATOR };
static const char *const FORMATS[] = {"B", "i", "lq", "d", "d"};
static const Py_ssize_t SIZE[] = {1, 4, 8, 8, 8};

/* An argument: its kind and, for an array, its number of dimensions and
 * whether the function writes it. */
struct param {
    enum kind kind;
    int ndim, writable;
};

/* A number argument, as its kind reads it. */
union number {
    long long index;
    double real;
    bitgen_t *generator;
};

/* The bytes from a view's first item to the end of its last (no stride of
 * a view taken is negative). */
static Py_ssize_t extent(const Py_buffer *v)
{
    Py_ssize_t end = v->itemsize;
    for (int d = 0; d < v->ndim; d++)
        end += (v->shape[d] - 1) * v->strides[d];
    return v->len ? end : 0;
}

/* Whether the memory of two views overlaps. */
static int overlap(const Py_buffer *a, const Py_buffer *b)
{
    const char *const pa = a->buf, *const pb = b->buf;
    return pa < pb + extent(b) && pb < pa + extent(a);
}

/* Reads the nargs args of the function name as its n params say: number
 * k into number[k], array k's buffer into view[k]. -1 with a TypeError
 * set and no view taken; 1 if it refuses an array, with no Python error
 * set; else 0. The caller releases the views either way. */
static int take_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
                     const struct param *param, int n, Py_buffer *view, union number *number)
{
    if (nargs != n) {
        PyErr_Format(PyExc_TypeError, "%s takes %d arguments", name, n);
        return -1;
    }
    for (int k = 0; k < n; k++) {
        if (param[k].kind == INDEX) {
            /* a value past long long reads as -1 with overflow set */
            int overflow;
            const long long value = PyLong_AsLongLongAndOverflow(args[k], &overflow);
            if (value == -1 && PyErr_Occurred())
                return -1;
            number[k].index = value < 0 ? -1 : value;
        } else if (param[k].kind == REAL) {
            number[k].real = PyFloat_AsDouble(args[k]);
            if (number[k].real == -1.0 && PyErr_Occurred())
                return -1;
        } else if (param[k].kind == GENERATOR) {
            /* args holds the generator, which owns the capsule and bitgen_t */
            PyObject *capsule = PyObject_GetAttrString(args[k], "capsule");
            number[k].generator = capsule ? PyCapsule_GetPointer(capsule, "BitGenerator") : NULL;
            Py_XDECREF(capsule);
            if (!number[k].generator) {
                PyErr_Format(PyExc_TypeError, "%s takes a numpy BitGenerator", name);
                return -1;
            }
        }
    }
    for (int k = 0; k < n; k++) {
        const struct param *const p = &param[k];
        Py_buffer *const v = &view[k];
        if (p->kind >= INDEX)
            continue;
        const int strided = p->kind == ROWS,
                  flags = (strided ? PyBUF_STRIDES : PyBUF_C_CONTIGUOUS) | PyBUF_FORMAT |
                          (p->writable ? PyBUF_WRITABLE : 0);
        if (PyObject_GetBuffer(args[k], v, flags) < 0) {
            PyErr_Clear();
            return 1;
        }
        const char *const format = v->format;
        const Py_ssize_t size = SIZE[p->kind];
        /* strided rows: items contiguous, rows whole items apart and disjoint */
        if (v->ndim != p->ndim || v->itemsize != size || (uintptr_t)v->buf % (uintptr_t)size ||
            !format[0] || format[1] || !strchr(FORMATS[p->kind], format[0]) ||
            (strided && (v->strides[1] != size || v->strides[0] % size ||
                         v->strides[0] < v->shape[1] * size)))
            return 1;
    }
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            if (param[a].writable && a != b && param[b].kind < INDEX && overlap(&view[a], &view[b]))
                return 1;
    return 0;
}

/* Releases the n views of a take_args, taken or left zeroed. */
static void release(Py_buffer *view, int n)
{
    for (int k = 0; k < n; k++)
        PyBuffer_Release(&view[k]);
}

/* Whether all n entries of index are in [0, limit). */
static int in_range(const int32_t *index, Py_ssize_t n, long long limit)
{
    for (Py_ssize_t k = 0; k < n; k++)
        if (index[k] < 0 || index[k] >= limit)
            return 0;
    return 1;
}

/* ---- The training loop ----
 *
 * train_pairs(O, T, b_t, phi, grad, classify_losses, regress_losses,
 * influencer, size_target, offsets, context, lr, b_c, bound, bias_bound)
 * takes an epoch's pairs in stream order: cascade i's context pairs
 * (influencer[i], context[k]), k in offsets[i]:offsets[i+1], each as
 * model.step_classify takes it at rate lr with a workspace of these phi,
 * grad and bounds, then its size pair (influencer[i], size_target[i]), as
 * model.step_regress takes it from this b_c. It returns (stop, b_c, bound,
 * bias_bound): stop is the number of pairs, or ~k if stream pair k (k + i
 * for context k, offsets[i+1] + i for cascade i's size pair) proved a
 * value non-finite; b_c and the bounds are those its steps leave, the
 * bounds inf after a non-finite classify step. The losses go to
 * classify_losses[k] and regress_losses[i]. As in step_regress, a
 * non-finite size step has written O_u and b_c.
 *
 * A classify step makes step_classify's operations in its order. Where
 * the rounding is numpy's own it calls numpy's own functions directly, as
 * above: dgemv for O_u T and T g (BLAS's summation order), exp's loop
 * (numpy's SIMD exp), add's loop for the softmax's denominator (pairwise
 * summation) and log's loop for the loss. The rest is element-wise IEEE
 * arithmetic, which rounds alike in C: + b_t, - max, / sum, g[y] - 1, the
 * fused T and b_t update, grad * lr and O_u - grad. The max does not
 * depend on the order: a NaN makes it NaN, and of a tie between +0 and -0
 * either serves, as exp(+-0) = 1. No step calls Python.
 *
 * A size step makes step_regress's operations in its order: O_u C by ddot
 * (grad holds the ones of C for the call), exp's loop on one entry, and
 * (y_c - phi_c) ** 2 by libm's pow, as numpy's scalar power calls it. The
 * rest is IEEE arithmetic on doubles, both branches of the sigmoid and a
 * NaN's way through them included.
 *
 * The finiteness proofs of a classify step are those of model.py, on the
 * bounds given. O_u is checked entry by entry, which is what its scaled
 * dot product proves.
 *
 * LOOP_ARGS lists the arguments: O, T, b_t, phi, grad and the losses are
 * writable float64 arrays of shapes (I, E), (E, N), (N), (N), (E), (n) and
 * (m), E and N at least 2, T's rows possibly strided (model.py pads each
 * to whole 64-byte lines); influencer holds m rows of O and offsets m + 1
 * offsets, from 0, non-decreasing, to n, both int64; size_target holds m
 * float64s; and context n int32 columns of T. For any other arrays the
 * loop takes no pair and returns None, so that the caller's steps take
 * the pairs; a call on an empty stream tells whether it takes the arrays.
 */

#define BOUND_LIMIT 1e300

/* max|x[i * ld + k]| over rows rows of n > 0 entries, NaN if they hold
 * one, as numpy's abs().max() */
static double max_abs(const double *x, size_t rows, size_t n, size_t ld)
{
    double max = 0.0;
    for (size_t i = 0; i < rows; i++)
        for (size_t k = 0; k < n; k++) {
            const double a = fabs(x[i * ld + k]);
            if (a > max || isnan(a))
                max = a;
        }
    return max;
}

enum { O_, T_, B_T, PHI, GRAD, CLASSIFY_LOSSES, REGRESS_LOSSES, INFLUENCER, SIZE_TARGET,
       CASCADE_OFFSETS, CONTEXT, LR, B_C, BOUND, BIAS_BOUND, N_LOOP_ARGS };
static const struct param LOOP_ARGS[N_LOOP_ARGS] = {
    {F64, 2, 1}, {ROWS, 2, 1}, {F64, 1, 1}, {F64, 1, 1}, {F64, 1, 1}, {F64, 1, 1}, {F64, 1, 1},
    {I64, 1, 0}, {F64, 1, 0}, {I64, 1, 0}, {I32, 1, 0},
    {REAL, 0, 0}, {REAL, 0, 0}, {REAL, 0, 0}, {REAL, 0, 0}};

struct loop {
    const Py_buffer *view; /* train_pairs' arrays, taken */
    double lr, b_c, bound, bias_bound;
};

/* One classify step on pair (u, y), its loss into *loss: 1 if it proved
 * every value finite, else 0. */
static int step(struct loop *s, size_t u, size_t y, double *loss)
{
    const Py_buffer *const view = s->view;
    const size_t E = (size_t)view[T_].shape[0], N = (size_t)view[T_].shape[1],
                 ld = (size_t)view[T_].strides[0] / sizeof(double);
    double *const t = view[T_].buf, *const b_t = view[B_T].buf, *const phi = view[PHI].buf,
                  *const grad = view[GRAD].buf, *const o_u = (double *)view[O_].buf + u * E;
    vector_matrix(o_u, t, phi, E, N, ld);
    double max = -INFINITY;
    for (size_t j = 0; j < N; j++) {
        phi[j] = phi[j] + b_t[j];
        /* once max is NaN no comparison is true, so it stays NaN */
        if (phi[j] > max || isnan(phi[j]))
            max = phi[j];
    }
    for (size_t j = 0; j < N; j++)
        phi[j] = phi[j] - max;
    unary(&numpy_own.exp, phi, phi, N);
    const double sum = add_reduce(phi, N);
    for (size_t j = 0; j < N; j++)
        phi[j] = phi[j] / sum;
    double log_phi_y;
    unary(&numpy_own.log, &phi[y], &log_phi_y, 1);
    *loss = -log_phi_y;
    phi[y] = phi[y] - 1.0;
    matrix_vector(t, phi, grad, E, N, ld);
    /* once the loss is finite every |g_j| <= 1: an entry of T moves by at
     * most lr * max|O_u|, one of b_t by at most lr */
    s->bound = s->bound + s->lr * max_abs(o_u, 1, E, E);
    fused_t_update(t, o_u, phi, b_t, s->lr, E, N, ld);
    s->bias_bound = s->bias_bound + s->lr;
    int finite = 1;
    for (size_t i = 0; i < E; i++) {
        grad[i] = grad[i] * s->lr;
        o_u[i] = o_u[i] - grad[i];
        finite &= isfinite(o_u[i]) != 0;
    }
    if (!(s->bound < BOUND_LIMIT))
        s->bound = max_abs(t, E, N, ld);
    if (!(s->bias_bound < BOUND_LIMIT))
        s->bias_bound = max_abs(b_t, 1, N, N);
    return finite && isfinite(*loss) && isfinite(s->bound) && isfinite(s->bias_bound);
}

/* libm's pow, which numpy's scalar power calls. The call goes through a
 * volatile pointer because gcc folds pow(d, 2.0) into d * d, and glibc's
 * pow rounds some squares otherwise. */
static double (*volatile libm_pow)(double, double) = pow;

/* One size step on pair (u, y_c), its loss into *loss: 1 if it proved
 * every value finite, else 0. */
static int size_step(struct loop *s, size_t u, double y_c, double *loss)
{
    const Py_buffer *const view = s->view;
    const size_t E = (size_t)view[O_].shape[1];
    double *const ones = view[GRAD].buf, *const o_u = (double *)view[O_].buf + u * E;
    for (size_t i = 0; i < E; i++)
        ones[i] = 1.0;
    const double z = vector_vector(o_u, ones, E) + s->b_c;
    double e = z >= 0.0 ? -z : z;
    unary(&numpy_own.exp, &e, &e, 1);
    const double phi_c = z >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
    const double d = y_c - phi_c, g = -2.0 * d * phi_c * (1.0 - phi_c), step = s->lr * g;
    *loss = libm_pow(d, 2.0);
    int finite = 1;
    for (size_t i = 0; i < E; i++) {
        o_u[i] = o_u[i] - step;
        finite &= isfinite(o_u[i]) != 0;
    }
    s->b_c = s->b_c - step;
    return finite && isfinite(*loss) && isfinite(s->b_c);
}

/* Whether the arrays of view have matching shapes, E and N at least 2
 * (below that numpy's matmul takes no dgemv), offsets that run from 0,
 * non-decreasing, to the contexts, every influencer a row of O and every
 * context a column of T. */
static int fits_loop(const Py_buffer *view)
{
    const Py_ssize_t *const o = view[O_].shape, *const t = view[T_].shape;
    const Py_ssize_t m = view[INFLUENCER].shape[0], n = view[CONTEXT].shape[0];
    const int64_t *const influencer = view[INFLUENCER].buf,
                  *const offsets = view[CASCADE_OFFSETS].buf;
    if (!(t[0] >= 2 && t[1] >= 2 && o[1] == t[0] && view[B_T].shape[0] == t[1] &&
          view[PHI].shape[0] == t[1] && view[GRAD].shape[0] == t[0] &&
          view[CLASSIFY_LOSSES].shape[0] == n && view[REGRESS_LOSSES].shape[0] == m &&
          view[SIZE_TARGET].shape[0] == m && view[CASCADE_OFFSETS].shape[0] == m + 1 &&
          offsets[0] == 0 && offsets[m] == n))
        return 0;
    for (Py_ssize_t i = 0; i < m; i++)
        if (offsets[i + 1] < offsets[i] || influencer[i] < 0 || influencer[i] >= o[0])
            return 0;
    return in_range(view[CONTEXT].buf, n, t[1]);
}

/* Takes the stream's pairs in order; where it stopped, as train_pairs
 * returns it. */
static Py_ssize_t run(struct loop *s)
{
    const Py_buffer *const view = s->view;
    const int64_t *const influencer = view[INFLUENCER].buf,
                  *const offsets = view[CASCADE_OFFSETS].buf;
    const double *const size_target = view[SIZE_TARGET].buf;
    const int32_t *const context = view[CONTEXT].buf;
    double *const classify = view[CLASSIFY_LOSSES].buf, *const regress = view[REGRESS_LOSSES].buf;
    const Py_ssize_t m = view[INFLUENCER].shape[0];
    for (Py_ssize_t i = 0; i < m; i++) {
        const size_t u = (size_t)influencer[i];
        for (int64_t k = offsets[i]; k < offsets[i + 1]; k++)
            if (!step(s, u, (size_t)context[k], &classify[k])) {
                s->bound = s->bias_bound = INFINITY;
                return ~(Py_ssize_t)(k + i);
            }
        if (!size_step(s, u, size_target[i], &regress[i]))
            return ~(Py_ssize_t)(offsets[i + 1] + i);
    }
    return view[CONTEXT].shape[0] + m;
}

static PyObject *train_pairs(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view[N_LOOP_ARGS] = {{0}};
    union number number[N_LOOP_ARGS];
    const int taken = take_args("train_pairs", args, nargs, LOOP_ARGS, N_LOOP_ARGS, view, number);
    if (taken < 0)
        return NULL;
    PyObject *result;
    if (taken || !numpy_own.dgemv || !fits_loop(view)) {
        result = Py_NewRef(Py_None);
    } else {
        struct loop s = {view, number[LR].real, number[B_C].real, number[BOUND].real,
                         number[BIAS_BOUND].real};
        /* the stop first: C leaves the order of a call's arguments open,
         * and the values to return are those the steps leave */
        const Py_ssize_t stop = run(&s);
        result = Py_BuildValue("(nddd)", stop, s.b_c, s.bound, s.bias_bound);
    }
    release(view, N_LOOP_ARGS);
    return result;
}

/* ---- The training stream's context draws ----
 *
 * draw_contexts(start, offsets, node_idx, times, draws, context,
 * bit_generator) makes the draws of context.choice_contexts, each cascade's
 *
 *     rng.choice(node_idx[a:b], size=draws[i], replace=True, p=w / w.sum())
 *
 * with w = sampling_weights(corpus)[a:b] and rng a Generator over
 * bit_generator: choice takes rng.random(draws[i]) per cascade, each value
 * the bit generator's next_double, and draw_contexts calls next_double in
 * the same order. Per cascade it writes the weights, 1.0 / (double)max(t -
 * start, 1), into its cdf room and makes Generator.choice's own
 * arithmetic: sum is add's loop in reduce form, as np.add.reduce(w) calls
 * it; p_k = w_k / sum; the cdf is p's sequential sum, as np.cumsum; cdf /=
 * cdf[-1]; and each draw of x takes node_idx[a + k], k the first index
 * with cdf[k] > x, as cdf.searchsorted(x, side="right"). So the contexts
 * are choice's, bit for bit. The draws are independent of each other, so
 * their binary searches run LANES at a time, in lockstep, and the rest one
 * by one, with the same indices. The cascades' draws fill context in
 * cascade order.
 *
 * start, offsets, times and draws are int64 arrays, node_idx and context
 * int32, all one-dimensional, context written, with one entry of start and
 * draws per cascade, one more of offsets, offsets from 0 up to len(times)
 * = len(node_idx) with no empty cascade, len(context) = sum(draws), no
 * start below 0 and no time before its cascade's start: so no delay
 * overflows, every weight is in (0, 1] and no sum is 0 or overflows.
 * Returns True once it has filled context, and False, having written and
 * drawn nothing, for arrays it cannot take and for every call where
 * numpy's own functions were not found. */

enum { D_START, D_OFFSETS, D_NODE_IDX, D_TIMES, DRAWS, CONTEXT_OUT, GENERATOR_ARG, N_DRAW };
static const struct param DRAW_ARGS[N_DRAW] = {{I64, 1, 0}, {I64, 1, 0}, {I32, 1, 0}, {I64, 1, 0},
                                               {I64, 1, 0}, {I32, 1, 1}, {GENERATOR, 0, 0}};

/* Whether the arrays of view are those draw_contexts takes; if so, the
 * longest cascade in *longest. */
static int fits_draws(const Py_buffer *view, Py_ssize_t *longest)
{
    const int64_t *const start = view[D_START].buf, *const offsets = view[D_OFFSETS].buf,
                  *const times = view[D_TIMES].buf, *const draws = view[DRAWS].buf;
    const Py_ssize_t cascades = view[DRAWS].shape[0], events = view[D_TIMES].shape[0],
                     total = view[CONTEXT_OUT].shape[0];
    if (view[D_START].shape[0] != cascades || view[D_OFFSETS].shape[0] != cascades + 1 ||
        view[D_NODE_IDX].shape[0] != events || offsets[0] != 0 || offsets[cascades] != events)
        return 0;
    Py_ssize_t drawn = 0;
    *longest = 0;
    for (Py_ssize_t i = 0; i < cascades; i++) {
        /* offsets ascend from 0, so no difference overflows */
        if (offsets[i + 1] <= offsets[i] || offsets[i + 1] > events || start[i] < 0 ||
            draws[i] < 0 || draws[i] > total - drawn)
            return 0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; k++)
            if (times[k] < start[i])
                return 0;
        const int64_t m = offsets[i + 1] - offsets[i];
        drawn += (Py_ssize_t)draws[i];
        if (m > *longest)
            *longest = (Py_ssize_t)m;
    }
    /* no sum overflows: each length is at most that of an array in memory */
    return drawn == total;
}

/* For each of the lanes values x[l], the first k with cdf[k] > x[l], into
 * lo[l]; cdf holds m entries, the last one 1 > x[l]. Every entry before
 * lo[l] is at most x[l], and cdf[lo[l] + n - 1] is above it. The number of
 * halvings depends on m alone, so the searches run in lockstep and their
 * loads overlap. */
static inline void search(const double *cdf, size_t m, const double *x, size_t *lo, int lanes)
{
    for (int l = 0; l < lanes; l++)
        lo[l] = 0;
    for (size_t n = m; n > 1;) {
        const size_t half = n / 2;
        for (int l = 0; l < lanes; l++)
            lo[l] = cdf[lo[l] + half - 1] <= x[l] ? lo[l] + half : lo[l];
        n -= half;
    }
}

enum { LANES = 8 }; /* draws searched in lockstep */

/* Fills context from view's arrays, fitted, with uniforms from generator
 * and cdf room for the longest cascade. */
static void draw(const Py_buffer *view, bitgen_t *generator, double *cdf)
{
    const int64_t *const start = view[D_START].buf, *const offsets = view[D_OFFSETS].buf,
                  *const times = view[D_TIMES].buf, *const draws = view[DRAWS].buf;
    const int32_t *const node_idx = view[D_NODE_IDX].buf;
    int32_t *row = view[CONTEXT_OUT].buf;
    for (Py_ssize_t i = 0; i < view[DRAWS].shape[0]; i++) {
        const int64_t a = offsets[i];
        const size_t m = (size_t)(offsets[i + 1] - a);
        for (size_t k = 0; k < m; k++) {
            const int64_t delay = times[a + (int64_t)k] - start[i];
            cdf[k] = 1.0 / (double)(delay > 1 ? delay : 1);
        }
        const double sum = add_reduce(cdf, m);
        double cum = 0.0;
        for (size_t k = 0; k < m; k++)
            cdf[k] = cum = k ? cum + cdf[k] / sum : cdf[k] / sum;
        for (size_t k = 0; k < m; k++)
            cdf[k] = cdf[k] / cum;
        double x[LANES];
        size_t lo[LANES];
        int64_t j = 0;
        for (; j + LANES <= draws[i]; j += LANES) {
            for (int l = 0; l < LANES; l++)
                x[l] = generator->next_double(generator->state);
            search(cdf, m, x, lo, LANES);
            for (int l = 0; l < LANES; l++)
                *row++ = node_idx[a + (int64_t)lo[l]];
        }
        for (; j < draws[i]; j++) {
            x[0] = generator->next_double(generator->state);
            search(cdf, m, x, lo, 1);
            *row++ = node_idx[a + (int64_t)lo[0]];
        }
    }
}

static PyObject *draw_contexts(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view[N_DRAW] = {{0}};
    union number number[N_DRAW];
    const int taken = take_args("draw_contexts", args, nargs, DRAW_ARGS, N_DRAW, view, number);
    if (taken < 0)
        return NULL;
    Py_ssize_t longest = 0;
    double *cdf = NULL;
    const int fits = !taken && numpy_own.dgemv && fits_draws(view, &longest) &&
                     (cdf = malloc((size_t)(longest ? longest : 1) * sizeof *cdf)) != NULL;
    if (fits)
        draw(view, number[GENERATOR_ARG].generator, cdf);
    free(cdf);
    release(view, N_DRAW);
    return Py_NewRef(fits ? Py_True : Py_False);
}

/* ---- The text scanners ----
 *
 * scan_cascades reads a cascade log that is in this strict form and gives
 * up on any other:
 *
 *   - a line ends in "\n" or "\r\n", or at the end of the file;
 *   - a blank line is empty, and a comment line starts with '#' in column
 *     0 and holds only printable ASCII and tabs;
 *   - any other line is ID:TIME TAB ID:TIME, then " ID:TIME" any number
 *     of times, where an id is one or more bytes 0x21-0x7E other than ':'
 *     and a time is decimal digits, below 2^63;
 *   - no event time precedes its line's start time, and some event is not
 *     the initiator.
 *
 * scan_edges reads an edge list in the same form, but that each line that
 * is not blank or a comment is ID TAB ID.
 *
 * Every file in this form parses alike in the Python parser, which reads
 * every other file: so a give-up costs only the time spent, and every
 * error is the Python parser's. Ids are interned in first-seen order (each
 * line's ids from left to right) into the caller's id arrays, through an
 * open-addressing hash table that lives only for the call. Each slot holds
 * an id's last 8 bytes and its length, so that a lookup compares the id's
 * other bytes only for an id longer than 8 bytes; its FNV-1a hash and its
 * last 8 bytes are taken in the same pass over its bytes that finds its
 * end, which reads no byte past the id.
 *
 * The cascade scanner also says whether the log is canonical, as every
 * log the package writes is: in each cascade the times do not descend, no
 * participant repeats and the initiator is not among the events. Then
 * build_corpus would keep every event in place, and load_cascades skips
 * it. Each id carries a stamp, the number (plus one) of the last cascade
 * that saw it: the initiator is stamped first, and an event whose id
 * already carries its cascade's stamp makes the log not canonical. So the
 * check costs O(1) per event.
 */

/* A slot of the hash table: an id's key, its length and 1 + its index;
 * index is 0 when the slot is free. */
struct slot {
    uint64_t key;
    int32_t length, index;
};

/* The distinct ids of the file being scanned: id k is
 * data[offset[k]:offset[k] + length[k]], in the caller's arrays of max
 * entries. slot is the hash table, of 2^(64 - shift) slots, and stamp[k]
 * is id k's stamp, 0 before any cascade saw it (NULL for an edge list);
 * the scanners free both before they return. */
struct ids {
    const unsigned char *data;
    int64_t *offset;
    int32_t *length;
    int64_t count, max;
    struct slot *slot;
    int shift;
    int64_t *stamp;
};

static const uint64_t FNV_OFFSET = 14695981039346656037ULL;

/* FNV-1a's step for one byte */
static inline uint64_t fnv_step(uint64_t hash, unsigned char byte)
{
    return (hash ^ byte) * 1099511628211ULL;
}

/* The slot of a hash: Fibonacci hashing, so the top bits of the product
 * pick the slot. */
static inline size_t slot_of(uint64_t hash, int shift)
{
    return (size_t)((hash * 0x9E3779B97F4A7C15ULL) >> shift);
}

/* An id's key is its last 8 bytes, or all of them, zero-padded: each byte
 * is shifted in at the top as the id is read. So ids of equal keys and
 * lengths differ only in bytes before their last 8. */
static inline uint64_t key_step(uint64_t key, unsigned char byte)
{
    return key >> 8 | (uint64_t)byte << 56;
}

/* Rebuilds the slots at twice their number (at 1024 the first time),
 * hashing each id again from its bytes. */
static int grow_slots(struct ids *ids)
{
    const int shift = ids->slot ? ids->shift - 1 : 54;
    const size_t n = (size_t)1 << (64 - shift);
    struct slot *slot = calloc(n, sizeof *slot);
    if (!slot)
        return -1;
    for (int64_t k = 0; k < ids->count; k++) {
        const unsigned char *id = ids->data + ids->offset[k];
        uint64_t hash = FNV_OFFSET, key = 0;
        for (int32_t b = 0; b < ids->length[k]; b++) {
            hash = fnv_step(hash, id[b]);
            key = key_step(key, id[b]);
        }
        size_t s = slot_of(hash, shift);
        while (slot[s].index)
            s = (s + 1) & (n - 1);
        slot[s] = (struct slot){key, ids->length[k], (int32_t)(k + 1)};
    }
    free(ids->slot);
    ids->slot = slot;
    ids->shift = shift;
    return 0;
}

/* The index of the id at start of length bytes, of FNV-1a hash and key,
 * added if new; -1 on failure. */
static int64_t intern(struct ids *ids, const unsigned char *start, int32_t length, uint64_t hash,
                      uint64_t key)
{
    if (!ids->slot || 2 * (ids->count + 1) > ((int64_t)1 << (64 - ids->shift)))
        if (grow_slots(ids))
            return -1;
    const size_t mask = ((size_t)1 << (64 - ids->shift)) - 1;
    size_t s = slot_of(hash, ids->shift);
    for (; ids->slot[s].index; s = (s + 1) & mask) {
        const struct slot *const t = &ids->slot[s];
        if (t->key == key && t->length == length &&
            (length <= 8 ||
             memcmp(ids->data + ids->offset[t->index - 1], start, (size_t)length - 8) == 0))
            return t->index - 1;
    }
    if (ids->count == ids->max || ids->count == INT32_MAX - 1)
        return -1;
    const int64_t k = ids->count++;
    ids->offset[k] = start - ids->data;
    ids->length[k] = length;
    ids->slot[s] = (struct slot){key, length, (int32_t)(k + 1)};
    return k;
}

/* Reads the id at *p, its bytes up to the first that is not 0x21-0x7E or
 * is ':', interns it and leaves *p after it; -1 if there is no id. */
static int64_t read_id(struct ids *ids, const unsigned char **p, const unsigned char *end)
{
    const unsigned char *const start = *p;
    const unsigned char *q = start;
    uint64_t hash = FNV_OFFSET, key = 0;
    for (; q < end && *q > 0x20 && *q < 0x7f && *q != ':'; q++) {
        hash = fnv_step(hash, *q);
        key = key_step(key, *q);
    }
    if (q == start || q - start > INT32_MAX)
        return -1;
    *p = q;
    return intern(ids, start, (int32_t)(q - start), hash, key);
}

/* Reads the decimal digits at *p; -1 if there are none or the time is
 * 2^63 or more. */
static int64_t read_time(const unsigned char **p, const unsigned char *end)
{
    const unsigned char *q = *p;
    /* 18 digits are below 10^18 < 2^63: only the digits after them can
     * overflow */
    const unsigned char *const safe = end - q > 18 ? q + 18 : end;
    uint64_t value = 0;
    for (; q < safe && *q >= '0' && *q <= '9'; q++)
        value = value * 10 + (unsigned)(*q - '0');
    for (; q < end && *q >= '0' && *q <= '9'; q++) {
        const unsigned next = *q - '0';
        if (value > ((uint64_t)INT64_MAX - next) / 10)
            return -1;
        value = value * 10 + next;
    }
    if (q == *p)
        return -1;
    *p = q;
    return (int64_t)value;
}

/* Moves *p past the line break at *p, "\n" or "\r\n": 1 if there is one or
 * *p is at the end, else 0. */
static int end_of_line(const unsigned char **p, const unsigned char *end)
{
    const unsigned char *q = *p;
    if (q < end && *q == '\r')
        q++;
    if (q < end && *q == '\n')
        q++;
    else if (q < end || q != *p)
        return 0;
    *p = q;
    return 1;
}

/* Moves *p, at the start of a line, past the line if it is blank or a
 * comment: 1 if it did, 0 if the line is neither, -1 if it is either but
 * not in the strict form. */
static int skip_line(const unsigned char **p, const unsigned char *end)
{
    const unsigned char *q = *p;
    if (*q == '#') {
        for (q++; q < end && *q != '\n' && *q != '\r'; q++)
            if ((*q < 0x20 && *q != '\t') || *q > 0x7e)
                return -1;
    } else if (*q != '\n' && *q != '\r') {
        return 0;
    }
    *p = q;
    return end_of_line(p, end) ? 1 : -1;
}

/* The arguments of scan_cascades, and the first seven of write_cascades:
 * the text, the arrays of a corpus, and where each id starts in the text.
 * The scanner writes all but the text; the writer only reads them. */
enum { TEXT, INITIATOR, START, OFFSETS, NODE_IDX, TIMES, ID_OFFSET, N_WRITE, ID_LENGTH = N_WRITE,
       N_SCAN };
static const struct param SCAN_ARGS[N_SCAN] = {{BYTE, 1, 0}, {I32, 1, 1}, {I64, 1, 1}, {I64, 1, 1},
                                               {I32, 1, 1}, {I64, 1, 1}, {I64, 1, 1}, {I32, 1, 1}};
static const struct param WRITE_ARGS[N_WRITE] = {{BYTE, 1, 0}, {I32, 1, 0}, {I64, 1, 0}, {I64, 1, 0},
                                                 {I32, 1, 0}, {I64, 1, 0}, {I64, 1, 0}};

/* Whether the corpus arrays of view have the lengths of one corpus: an
 * entry of initiator and start per cascade, one more of offsets, and one
 * of node_idx per entry of times. */
static int one_corpus(const Py_buffer *view)
{
    const Py_ssize_t cascades = view[INITIATOR].shape[0];
    return view[START].shape[0] == cascades && view[OFFSETS].shape[0] == cascades + 1 &&
           view[NODE_IDX].shape[0] == view[TIMES].shape[0];
}

/* Scans view[TEXT] into the arrays of view, with room for as many
 * cascades and events as they have entries; the number of cascades, or -1.
 * *canonical is cleared if some cascade is not in canonical form. */
static int64_t scan(struct ids *ids, const Py_buffer *view, int *canonical)
{
    int32_t *const initiator = view[INITIATOR].buf, *const node_idx = view[NODE_IDX].buf;
    int64_t *const start = view[START].buf, *const offsets = view[OFFSETS].buf,
                  *const times = view[TIMES].buf;
    const int64_t max_cascades = view[INITIATOR].shape[0], max_events = view[TIMES].shape[0];
    const unsigned char *p = ids->data;
    const unsigned char *const end = p + view[TEXT].len;
    int64_t n = 0, events = 0;
    offsets[0] = 0;
    while (p < end) {
        const int skipped = skip_line(&p, end);
        if (skipped < 0)
            return -1;
        if (skipped)
            continue;
        const int64_t u = read_id(ids, &p, end);
        const int64_t t0 = u < 0 || p == end || *p++ != ':' ? -1 : read_time(&p, end);
        if (t0 < 0 || p == end || *p++ != '\t' || n == max_cascades)
            return -1;
        const int64_t stamp = n + 1;
        ids->stamp[u] = stamp;
        int other = 0;
        for (int64_t last = t0;;) {
            const int64_t v = read_id(ids, &p, end);
            const int64_t t = v < 0 || p == end || *p++ != ':' ? -1 : read_time(&p, end);
            if (t < t0 || events == max_events)
                return -1;
            node_idx[events] = (int32_t)v;
            times[events++] = t;
            other |= v != u;
            *canonical &= t >= last && ids->stamp[v] != stamp;
            ids->stamp[v] = stamp;
            last = t;
            if (p < end && *p == ' ') {
                p++;
                continue;
            }
            if (!end_of_line(&p, end))
                return -1;
            break;
        }
        if (!other)
            return -1;
        initiator[n] = (int32_t)u;
        start[n++] = t0;
        offsets[n] = events;
    }
    return n;
}

/* scan_cascades(log, initiator, start, offsets, node_idx, times,
 * id_offset, id_length) scans the bytes of log into the writable arrays of
 * SCAN_ARGS, of one corpus's lengths, cascade i's events at
 * offsets[i]:offsets[i+1] of node_idx and times, and the distinct ids into
 * id_offset and id_length, as long as each other: id k is
 * log[id_offset[k]:id_offset[k] + id_length[k]]. The arrays' lengths are
 * the room there is.
 *
 * Returns (cascades, ids, canonical), canonical True if the log is in
 * canonical form, or (-1, 0, False) to give up: the log is not in the
 * strict form, an array is refused or not of its length, or the log needs
 * more room or memory than there is. */
static PyObject *scan_cascades(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view[N_SCAN] = {0};
    const int taken = take_args("scan_cascades", args, nargs, SCAN_ARGS, N_SCAN, view, NULL);
    if (taken < 0)
        return NULL;
    int64_t n = -1, count = 0;
    int canonical = 1;
    if (!taken && one_corpus(view) &&
        view[ID_LENGTH].shape[0] == view[ID_OFFSET].shape[0]) {
        const int64_t max = view[ID_OFFSET].shape[0];
        /* pages of stamps no id reaches are never touched */
        struct ids ids = {view[TEXT].buf, view[ID_OFFSET].buf, view[ID_LENGTH].buf, 0, max, NULL,
                          0, calloc(max ? (size_t)max : 1, sizeof(int64_t))};
        n = ids.stamp ? scan(&ids, view, &canonical) : -1;
        free(ids.slot);
        free(ids.stamp);
        count = n < 0 ? 0 : ids.count;
    }
    release(view, N_SCAN);
    return Py_BuildValue("(LLO)", (long long)n, (long long)count,
                         n >= 0 && canonical ? Py_True : Py_False);
}

/* scan_edges(text, src, dst, id_offset, id_length) scans the bytes of an
 * edge list into the writable int32 arrays src and dst, of one length,
 * edge k from id src[k] to id dst[k] in line order, and the distinct ids
 * into id_offset (int64) and id_length (int32), of one length, as
 * scan_cascades does. Every edge is kept: self-loops and repeated pairs
 * too. The arrays' lengths are the room there is.
 *
 * Returns (edges, ids), or (-1, 0) to give up: the text is not in the
 * strict form, an array is refused or not of its length, or the text needs
 * more room or memory than there is. */
enum { E_TEXT, SRC, DST, E_ID_OFFSET, E_ID_LENGTH, N_EDGE_SCAN };
static const struct param EDGE_ARGS[N_EDGE_SCAN] = {{BYTE, 1, 0}, {I32, 1, 1}, {I32, 1, 1},
                                                    {I64, 1, 1}, {I32, 1, 1}};

static int64_t scan_edge_lines(struct ids *ids, const Py_buffer *view)
{
    int32_t *const src = view[SRC].buf, *const dst = view[DST].buf;
    const int64_t max_edges = view[SRC].shape[0];
    const unsigned char *p = ids->data;
    const unsigned char *const end = p + view[E_TEXT].len;
    int64_t n = 0;
    while (p < end) {
        const int skipped = skip_line(&p, end);
        if (skipped < 0)
            return -1;
        if (skipped)
            continue;
        const int64_t u = read_id(ids, &p, end);
        if (u < 0 || p == end || *p++ != '\t')
            return -1;
        const int64_t v = read_id(ids, &p, end);
        if (v < 0 || !end_of_line(&p, end) || n == max_edges)
            return -1;
        src[n] = (int32_t)u;
        dst[n++] = (int32_t)v;
    }
    return n;
}

static PyObject *scan_edges(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view[N_EDGE_SCAN] = {0};
    const int taken = take_args("scan_edges", args, nargs, EDGE_ARGS, N_EDGE_SCAN, view, NULL);
    if (taken < 0)
        return NULL;
    int64_t n = -1, count = 0;
    if (!taken && view[DST].shape[0] == view[SRC].shape[0] &&
        view[E_ID_LENGTH].shape[0] == view[E_ID_OFFSET].shape[0]) {
        struct ids ids = {view[E_TEXT].buf, view[E_ID_OFFSET].buf, view[E_ID_LENGTH].buf, 0,
                          view[E_ID_OFFSET].shape[0], NULL, 0, NULL};
        n = scan_edge_lines(&ids, view);
        free(ids.slot);
        count = n < 0 ? 0 : ids.count;
    }
    release(view, N_EDGE_SCAN);
    return Py_BuildValue("(LL)", (long long)n, (long long)count);
}

/* ---- The cascade writer ----
 *
 * write_cascades(id_bytes, initiator, start, offsets, node_idx, times,
 * id_bounds) renders a corpus as serialize_cascades does: per cascade,
 * "INITIATOR:START\t" and its events as "ID:TIME" joined by single spaces,
 * then "\n". Id k is id_bytes[id_bounds[k]:id_bounds[k+1]] (its UTF-8);
 * the corpus arrays are those of WRITE_ARGS, of the lengths of one corpus,
 * read-only or not.
 *
 * Returns the text as bytes, or None if an array is refused or not of its
 * length, or an index, an offset or an id bound is out of range. */

/* Writes "ID:VALUE" followed by sep to out, if not NULL; returns its length.
 * VALUE, in decimal, is built from its last digit back in tail. */
static size_t put_pair(char *out, const char *id_bytes, const int64_t *id_bounds,
                       int64_t k, int64_t value, char sep)
{
    const size_t length = (size_t)(id_bounds[k + 1] - id_bounds[k]);
    char tail[22], *p = tail + sizeof tail; /* ':', '-', 19 digits, sep */
    uint64_t u = value < 0 ? -(uint64_t)value : (uint64_t)value;
    *--p = sep;
    do
        *--p = (char)('0' + u % 10);
    while (u /= 10);
    if (value < 0)
        *--p = '-';
    *--p = ':';
    const size_t n = (size_t)(tail + sizeof tail - p);
    if (out) {
        memcpy(out, id_bytes + id_bounds[k], length);
        memcpy(out + length, p, n);
    }
    return length + n;
}

/* Writes the text of view's corpus to out, if not NULL; its length, or -1. */
static int64_t render(const Py_buffer *view, char *out)
{
    const char *const id_bytes = view[TEXT].buf;
    const int64_t *const id_bounds = view[ID_OFFSET].buf, *const start = view[START].buf,
                  *const offsets = view[OFFSETS].buf, *const times = view[TIMES].buf;
    const int32_t *const initiator = view[INITIATOR].buf, *const node_idx = view[NODE_IDX].buf;
    const int64_t n_ids = view[ID_OFFSET].shape[0] - 1, n_events = view[TIMES].shape[0];
    if (n_ids < 0 || id_bounds[0] < 0 || id_bounds[n_ids] > view[TEXT].len)
        return -1;
    for (int64_t k = 0; k < n_ids; k++)
        if (id_bounds[k] > id_bounds[k + 1])
            return -1;
    size_t size = 0;
    for (int64_t i = 0; i < view[INITIATOR].shape[0]; i++) {
        const int64_t a = offsets[i], b = offsets[i + 1];
        if (initiator[i] < 0 || initiator[i] >= n_ids || a < 0 || a > b || b > n_events)
            return -1;
        size += put_pair(out ? out + size : NULL, id_bytes, id_bounds, initiator[i],
                         start[i], '\t');
        if (a == b && out)
            out[size] = '\n';
        size += a == b;
        for (int64_t e = a; e < b; e++) {
            if (node_idx[e] < 0 || node_idx[e] >= n_ids)
                return -1;
            size += put_pair(out ? out + size : NULL, id_bytes, id_bounds, node_idx[e],
                             times[e], e + 1 < b ? ' ' : '\n');
        }
    }
    return (int64_t)size;
}

static PyObject *write_cascades(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view[N_WRITE] = {0};
    const int taken = take_args("write_cascades", args, nargs, WRITE_ARGS, N_WRITE, view, NULL);
    if (taken < 0)
        return NULL;
    const int64_t size = taken || !one_corpus(view) ? -1 : render(view, NULL);
    PyObject *text = size < 0 ? Py_NewRef(Py_None) : PyBytes_FromStringAndSize(NULL, size);
    if (text && size >= 0)
        render(view, PyBytes_AS_STRING(text));
    release(view, N_WRITE);
    return text;
}

/* ---- Canonical events ----
 *
 * canonical_events(initiator, offsets, node_idx, times, out_offsets,
 * out_node_idx, out_times, n_ids) puts the raw cascades of build_corpus in
 * canonical form: per cascade, its events sorted by time, stably, so that
 * equal times keep their input order as np.lexsort keeps them; of each
 * node only its first event in that order; and none of the initiator. The
 * cascades' events go to out_node_idx and out_times, compacted, cascade i's
 * at out_offsets[i]:out_offsets[i+1]. Each cascade is copied into room
 * for the longest one, and sorted there (sort_events) only if its times
 * descend somewhere. Each id carries a stamp, as in the scanner: the
 * initiator is stamped first, and an event whose id already carries its
 * cascade's stamp is dropped. So the pass is linear in the events, and
 * needs no room of the corpus's size. An edge list takes the same pass,
 * each source's edges one cascade of ascending times (see _distinct_edges
 * in cascades.py), which drops its self-loops and repeated pairs.
 *
 * initiator and node_idx are int32 arrays of indices into an id table of
 * n_ids ids, and out_node_idx an int32 array; offsets, times and their
 * outputs are int64, all one-dimensional. offsets, one more than the
 * cascades, ascend from 0 to len(node_idx) = len(times), and each output
 * is as long as its input. It returns the number of events it kept, or
 * -1, having written nothing, for arrays it cannot take, an index out of
 * range or a lack of memory. */

enum { C_INITIATOR, C_OFFSETS, C_NODE_IDX, C_TIMES, C_OUT_OFFSETS, C_OUT_NODE_IDX, C_OUT_TIMES,
       C_N_IDS, N_CANONICAL };
static const struct param CANONICAL_ARGS[N_CANONICAL] = {
    {I32, 1, 0}, {I64, 1, 0}, {I32, 1, 0}, {I64, 1, 0},
    {I64, 1, 1}, {I32, 1, 1}, {I64, 1, 1}, {INDEX, 0, 0}};

struct event {
    int64_t time;
    int32_t node;
};

enum { SHORT = 16 }; /* events insertion-sorted; longer cascades take the radix sort */

/* Sorts the m events of a by time, stably, with b as room for m more;
 * returns a or b, whichever holds them sorted. Up to SHORT events take an
 * insertion sort; more take a least-significant-digit radix sort, one byte
 * of time - min per pass, for as many bytes as max - min has. */
static struct event *sort_events(struct event *a, struct event *b, size_t m)
{
    if (m <= SHORT) {
        for (size_t k = 1; k < m; k++) {
            const struct event e = a[k];
            size_t j = k;
            for (; j > 0 && a[j - 1].time > e.time; j--)
                a[j] = a[j - 1];
            a[j] = e;
        }
        return a;
    }
    int64_t min = a[0].time, max = a[0].time;
    for (size_t k = 1; k < m; k++) {
        min = a[k].time < min ? a[k].time : min;
        max = a[k].time > max ? a[k].time : max;
    }
    /* unsigned, so that no difference of two int64 overflows */
    const uint64_t base = (uint64_t)min, range = (uint64_t)max - base;
    for (int shift = 0; shift < 64 && range >> shift; shift += 8) {
        size_t at[256] = {0};
        for (size_t k = 0; k < m; k++)
            at[((uint64_t)a[k].time - base) >> shift & 255]++;
        for (size_t d = 0, sum = 0; d < 256; d++) {
            const size_t count = at[d];
            at[d] = sum;
            sum += count;
        }
        /* each digit's events keep their order: stable */
        for (size_t k = 0; k < m; k++)
            b[at[((uint64_t)a[k].time - base) >> shift & 255]++] = a[k];
        struct event *const t = a;
        a = b;
        b = t;
    }
    return a;
}

/* Whether the arrays of view are those canonical_events takes, with n_ids
 * ids; if so, the longest cascade in *longest. */
static int fits_canonical(const Py_buffer *view, long long n_ids, Py_ssize_t *longest)
{
    const int64_t *const offsets = view[C_OFFSETS].buf;
    const Py_ssize_t cascades = view[C_INITIATOR].shape[0], events = view[C_TIMES].shape[0];
    if (view[C_OFFSETS].shape[0] != cascades + 1 || view[C_OUT_OFFSETS].shape[0] != cascades + 1 ||
        view[C_NODE_IDX].shape[0] != events || view[C_OUT_NODE_IDX].shape[0] != events ||
        view[C_OUT_TIMES].shape[0] != events || offsets[0] != 0 || offsets[cascades] != events)
        return 0;
    *longest = 0;
    for (Py_ssize_t i = 0; i < cascades; i++) {
        /* offsets ascend from 0, so no difference overflows */
        if (offsets[i + 1] < offsets[i])
            return 0;
        if (offsets[i + 1] - offsets[i] > *longest)
            *longest = (Py_ssize_t)(offsets[i + 1] - offsets[i]);
    }
    return in_range(view[C_INITIATOR].buf, cascades, n_ids) &&
           in_range(view[C_NODE_IDX].buf, events, n_ids);
}

/* Writes the canonical events of view's cascades, fitted, with a stamp per
 * id, all 0, and room for twice the longest cascade; the events kept. */
static int64_t write_canonical(const Py_buffer *view, int64_t *stamp, struct event *room,
                               size_t longest)
{
    const int32_t *const initiator = view[C_INITIATOR].buf, *const node_idx = view[C_NODE_IDX].buf;
    const int64_t *const offsets = view[C_OFFSETS].buf, *const times = view[C_TIMES].buf;
    int64_t *const out_offsets = view[C_OUT_OFFSETS].buf, *const out_times = view[C_OUT_TIMES].buf;
    int32_t *const out_node_idx = view[C_OUT_NODE_IDX].buf;
    int64_t kept = 0;
    out_offsets[0] = 0;
    for (Py_ssize_t i = 0; i < view[C_INITIATOR].shape[0]; i++) {
        const int64_t a = offsets[i], mark = i + 1;
        const size_t m = (size_t)(offsets[i + 1] - a);
        int descends = 0;
        for (size_t e = 0; e < m; e++) {
            room[e] = (struct event){times[a + (int64_t)e], node_idx[a + (int64_t)e]};
            descends |= e && room[e].time < room[e - 1].time;
        }
        const struct event *const sorted = descends ? sort_events(room, room + longest, m) : room;
        stamp[initiator[i]] = mark;
        for (size_t e = 0; e < m; e++)
            if (stamp[sorted[e].node] != mark) {
                stamp[sorted[e].node] = mark;
                out_node_idx[kept] = sorted[e].node;
                out_times[kept++] = sorted[e].time;
            }
        out_offsets[i + 1] = kept;
    }
    return kept;
}

static PyObject *canonical_events(PyObject *Py_UNUSED(module), PyObject *const *args,
                                  Py_ssize_t nargs)
{
    Py_buffer view[N_CANONICAL] = {{0}};
    union number number[N_CANONICAL];
    const int taken =
        take_args("canonical_events", args, nargs, CANONICAL_ARGS, N_CANONICAL, view, number);
    if (taken < 0)
        return NULL;
    const long long n_ids = number[C_N_IDS].index;
    Py_ssize_t longest = 0;
    int64_t kept = -1, *stamp = NULL;
    struct event *room = NULL;
    if (!taken && n_ids >= 0 && fits_canonical(view, n_ids, &longest) &&
        (stamp = calloc(n_ids ? (size_t)n_ids : 1, sizeof *stamp)) != NULL &&
        (room = malloc(2 * (size_t)(longest ? longest : 1) * sizeof *room)) != NULL)
        kept = write_canonical(view, stamp, room, (size_t)longest);
    free(room);
    free(stamp);
    release(view, N_CANONICAL);
    return PyLong_FromLongLong(kept);
}

/* Sets the module's isa to the fused_t_update copy that runs: "avx512f",
 * "avx2" or "baseline". The resolver picks the first copy CLONES lists
 * that the CPU supports, and this tests the CPU in the same order. Then
 * finds numpy's own functions for the training loop. */
static int exec_module(PyObject *module)
{
    const char *isa = "baseline";
#if defined(__x86_64__) && defined(__GLIBC__)
    if (__builtin_cpu_supports("avx512f"))
        isa = "avx512f";
    else if (__builtin_cpu_supports("avx2"))
        isa = "avx2";
#endif
    return PyModule_AddStringConstant(module, "isa", isa) < 0 ? -1 : find_numpy_own(module);
}

static PyMethodDef methods[] = {
    {"train_pairs", (PyCFunction)(void (*)(void))train_pairs, METH_FASTCALL,
     "train_pairs(O, T, b_t, phi, grad, classify_losses, regress_losses, influencer, "
     "size_target, offsets, context, lr, b_c, bound, bias_bound)"},
    {"draw_contexts", (PyCFunction)(void (*)(void))draw_contexts, METH_FASTCALL,
     "draw_contexts(start, offsets, node_idx, times, draws, context, bit_generator)"},
    {"scan_cascades", (PyCFunction)(void (*)(void))scan_cascades, METH_FASTCALL,
     "scan_cascades(log, initiator, start, offsets, node_idx, times, id_offset, id_length)"},
    {"scan_edges", (PyCFunction)(void (*)(void))scan_edges, METH_FASTCALL,
     "scan_edges(text, src, dst, id_offset, id_length)"},
    {"write_cascades", (PyCFunction)(void (*)(void))write_cascades, METH_FASTCALL,
     "write_cascades(id_bytes, initiator, start, offsets, node_idx, times, id_bounds)"},
    {"canonical_events", (PyCFunction)(void (*)(void))canonical_events, METH_FASTCALL,
     "canonical_events(initiator, offsets, node_idx, times, out_offsets, out_node_idx, "
     "out_times, n_ids)"},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {{Py_mod_exec, (void *)exec_module}, {0, NULL}};

static struct PyModuleDef module_def = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "iminfector._native_lib",
    .m_doc = "iminfector's native library: the training loop, the training stream's "
             "context draws, the cascade text format, the edge list scanner, and the "
             "canonical events of raw arrays.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__native_lib(void)
{
    return PyModuleDef_Init(&module_def);
}
