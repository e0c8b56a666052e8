/* The package's native library: the classify step's epoch loop with its
 * T update, and a scanner and a writer for the cascade text format.
 * _native.py builds it on first use against this interpreter's Python.h
 * and numpy's headers and loads it once, as the extension module
 * iminfector._native_lib. Its functions take no address or capacity: they
 * read arrays through the buffer protocol, checked by take(), and size
 * their work by the arrays' lengths. Of numpy's C API it uses only the
 * ufunc type and its layout: the loop calls numpy's own float64 inner
 * loops and its BLAS's dgemv directly, and model.py sends it only the
 * models where those calls give numpy's bits.
 *
 * ---- The T and b_t update of one classify step, fused into one pass ----
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
 * copy. The module's isa names the copy picked; fused_t_update stays
 * exported so that the copy it resolves to can be checked against isa.
 *
 * Returns max|O_u[i]|, or NaN if O_u holds a NaN, as numpy's
 * maximum.reduce of |O_u| does. The four arrays must not overlap.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* the ufunc object's layout and NPY_DOUBLE; the module imports only the
 * ufunc API, and that only to tell a ufunc from another object */
#define NPY_NO_DEPRECATED_API NPY_API_VERSION
#define NO_IMPORT_ARRAY
#include <numpy/ndarraytypes.h>
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

/* ---- numpy's own functions, called directly ----
 *
 * Five calls of the classify step have numpy's rounding: matmul for O_u T
 * and for T g, exp, add.reduce and log. numpy's matmul multiplies a vector
 * by a matrix, and a matrix by a vector, with its BLAS's cblas_dgemv, and
 * its exp, add and log run the float64 inner loop of their ufunc. The
 * module's exec slot finds these functions, and the loop calls them
 * itself, with the arguments numpy 2 passes them for the step's contiguous
 * float64 arrays:
 *
 *   O_u T   dgemv(RowMajor, Trans, E, N, 1, T, N, O_u, 1, 0, phi, 1)
 *   T g     dgemv(ColMajor, Trans, N, E, 1, T, N, g, 1, 0, grad, 1), the
 *           RowMajor NoTrans product of T and g
 *   exp     exp's loop on (phi, phi): N entries, steps (8, 8)
 *   sum     add's loop in reduce form on (sum, phi, sum): N entries,
 *           steps (0, 8, 0), sum starting at -0.0
 *   log     log's loop on one entry
 *
 * So the bits are numpy's, with no Python call, argument parsing or ufunc
 * dispatch in between. numpy takes dgemv only for some shapes (an E or N
 * of 1 goes elsewhere), and its own rules pick the loop and the start of
 * the sum: so model.py decides, from the model's shape and self-checks at
 * it, whether the loop may run, and takes the numpy step where it may not.
 * A direct call sets no numpy error state and issues no warning; train
 * runs the loop with numpy's overflow, invalid and divide warnings off
 * anyway.
 *
 * dgemv is scipy_cblas_dgemv64_, the ILP64 symbol of the scipy-openblas
 * library that numpy's wheels link, found through a handle on numpy's
 * _multiarray_umath. Each loop is the first all-float64 entry of its
 * ufunc's functions and data, the one numpy's default loop selector picks.
 * If any of them is missing, the module's direct is False, classify_pairs
 * and direct_call raise RuntimeError, and train takes the numpy step. The
 * module's blas_core names the kernel set OpenBLAS picked for this CPU, or
 * is None.
 */

typedef void dgemv_fn(int order, int trans, int64_t m, int64_t n, double alpha, const double *a,
                      int64_t lda, const double *x, int64_t incx, double beta, double *y,
                      int64_t incy);
typedef const char *corename_fn(void);
enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 }; /* cblas.h's values */

struct ufunc_loop {
    PyUFuncGenericFunction fn;
    void *data;
};

/* Set by the exec slot; dgemv is NULL unless every function was found. */
static struct {
    dgemv_fn *dgemv;
    struct ufunc_loop exp, add, log;
} numpy_own;

/* out (N) = x (E) times a (E x N), as np.matmul(x, a, out=out) */
static void vector_matrix(const double *x, const double *a, double *out, size_t E, size_t N)
{
    numpy_own.dgemv(ROW_MAJOR, TRANS, (int64_t)E, (int64_t)N, 1.0, a, (int64_t)N, x, 1, 0.0, out, 1);
}

/* out (E) = a (E x N) times x (N), as np.matmul(a, x, out=out) */
static void matrix_vector(const double *a, const double *x, double *out, size_t E, size_t N)
{
    numpy_own.dgemv(COL_MAJOR, TRANS, (int64_t)N, (int64_t)E, 1.0, a, (int64_t)N, x, 1, 0.0, out, 1);
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

/* Finds numpy's dgemv, exp, add and log loops and its BLAS's kernel set,
 * and sets the module's direct and blas_core; -1 with a Python error set if
 * it cannot set them, else 0. */
static int find_numpy_own(PyObject *module)
{
    dgemv_fn *dgemv = NULL;
    const char *core = NULL;
    PyObject *numpy = PyImport_ImportModule("numpy");
    PyObject *umath = numpy ? PyImport_ImportModule("numpy._core._multiarray_umath") : NULL;
    PyObject *file = umath ? PyObject_GetAttrString(umath, "__file__") : NULL;
    const char *path = file ? PyUnicode_AsUTF8(file) : NULL;
    void *handle = path ? dlopen(path, RTLD_LAZY | RTLD_NOLOAD) : NULL;
    if (handle) {
        dgemv = (dgemv_fn *)dlsym(handle, "scipy_cblas_dgemv64_");
        corename_fn *corename = (corename_fn *)dlsym(handle, "scipy_openblas_get_corename64_");
        if (!corename)
            corename = (corename_fn *)dlsym(handle, "openblas_get_corename");
        core = corename ? corename() : NULL;
        /* numpy's import holds the library open, so its functions stay */
        dlclose(handle);
    }
    PyErr_Clear();
    const int found = dgemv && numpy && _import_umath() == 0 &&
                      !find_loop(numpy, "exp", 2, &numpy_own.exp) &&
                      !find_loop(numpy, "add", 3, &numpy_own.add) &&
                      !find_loop(numpy, "log", 2, &numpy_own.log);
    PyErr_Clear();
    numpy_own.dgemv = found ? dgemv : NULL;
    Py_XDECREF(file);
    Py_XDECREF(umath);
    Py_XDECREF(numpy);
    PyObject *name = core ? PyUnicode_FromString(core) : Py_NewRef(Py_None);
    const int failed = !name || PyModule_AddObjectRef(module, "blas_core", name) < 0 ||
                       PyModule_AddObjectRef(module, "direct", found ? Py_True : Py_False) < 0;
    Py_XDECREF(name);
    return failed ? -1 : 0;
}

/* ---- The classify epoch loop ----
 *
 * classify_pairs(model, ws, influencer, context, start, lr, losses) takes
 * the pairs of an epoch's stream from index start on, each as
 * model.step_classify(model, u, y, lr, ws) takes it, and stops at the
 * first pair it does not take: a size pair (context < 0), a pair whose u
 * or y is out of range, or the end of the stream. It returns that pair's
 * index, or ~k if the step of pair k proved a value non-finite; the loss
 * of each pair k it took is in losses[k].
 *
 * A step makes step_classify's operations in its order. Where the rounding
 * is numpy's own it calls numpy's own functions directly, as above: dgemv
 * for O_u T and T g (BLAS's summation order), exp's loop (numpy's SIMD
 * exp), add's loop for the softmax's denominator (pairwise summation) and
 * log's loop for the loss. The rest is element-wise IEEE arithmetic, which
 * rounds alike in C: + b_t, - max, / sum, g[y] - 1, the fused T and b_t
 * update, grad * lr and O_u - grad. The max does not depend on the order:
 * a NaN makes it NaN, and of a tie between +0 and -0 either serves, as
 * exp(+-0) = 1. No step calls Python.
 *
 * The finiteness proofs are those of model.py, on the workspace's bound
 * and bias_bound: read at the start, set to inf while the loop runs,
 * written back at the end. O_u is checked entry by entry, which is what
 * its scaled dot product proves.
 *
 * model.O, model.T, model.b_t, ws.phi and ws.grad must be distinct,
 * aligned, writable, C-contiguous float64 arrays of shapes (I, E), (E, N),
 * (N), (N) and (E), losses another of the stream's length, and influencer
 * and context int64 arrays of that length. If they are not, the loop takes
 * no pair and returns start, so that the caller's step takes it.
 */

#define BOUND_LIMIT 1e300

/* max|x[k]| of n > 0 entries, NaN if x holds one, as numpy's abs().max() */
static double max_abs(const double *x, size_t n)
{
    double max = 0.0;
    for (size_t k = 0; k < n; k++) {
        const double a = fabs(x[k]);
        if (a > max || isnan(a))
            max = a;
    }
    return max;
}

enum { O_, T_, B_T, PHI, GRAD, LOSSES, N_REAL, INFLUENCER = N_REAL, CONTEXT, N_ARRAYS };

struct loop {
    PyObject *obj[N_ARRAYS];
    Py_buffer view[N_ARRAYS];
    double *o, *t, *b_t, *phi, *grad, lr, bound, bias_bound;
    size_t E, N;
};

/* One step on pair (u, y), its loss into *loss: 1 if it proved every
 * value finite, else 0. */
static int step(struct loop *s, size_t u, size_t y, double *loss)
{
    const size_t E = s->E, N = s->N;
    double *const phi = s->phi, *const grad = s->grad, *const o_u = s->o + u * E;
    vector_matrix(o_u, s->t, phi, E, N);
    double max = -INFINITY;
    for (size_t j = 0; j < N; j++) {
        phi[j] = phi[j] + s->b_t[j];
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
    matrix_vector(s->t, phi, grad, E, N);
    /* once the loss is finite every |g_j| <= 1: an entry of T moves by at
     * most lr * max|O_u|, one of b_t by at most lr */
    s->bound = s->bound + s->lr * fused_t_update(s->t, o_u, phi, s->b_t, s->lr, E, N);
    s->bias_bound = s->bias_bound + s->lr;
    int finite = 1;
    for (size_t i = 0; i < E; i++) {
        grad[i] = grad[i] * s->lr;
        o_u[i] = o_u[i] - grad[i];
        finite &= isfinite(o_u[i]) != 0;
    }
    if (!(s->bound < BOUND_LIMIT))
        s->bound = max_abs(s->t, E * N);
    if (!(s->bias_bound < BOUND_LIMIT))
        s->bias_bound = max_abs(s->b_t, N);
    return finite && isfinite(*loss) && isfinite(s->bound) && isfinite(s->bias_bound);
}

/* The item kinds take() accepts: the struct formats of each, and its size. */
enum kind { BYTE, I32, I64, F64 };
static const char *const FORMATS[] = {"B", "i", "lq", "d"};
static const Py_ssize_t SIZE[] = {1, 4, 8, 8};

/* Takes the buffer of obj into *view if obj is an aligned, C-contiguous
 * array of ndim dimensions and items of the kind, writable if flags holds
 * PyBUF_WRITABLE; 0, or -1 with no Python error set. The caller releases
 * *view either way, once it is done with the array. */
static int take(PyObject *obj, Py_buffer *view, int ndim, enum kind kind, int flags)
{
    if (!obj || PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0) {
        PyErr_Clear();
        return -1;
    }
    const char *const format = view->format;
    if (view->ndim != ndim || view->itemsize != SIZE[kind] || (uintptr_t)view->buf % SIZE[kind] ||
        !format[0] || format[1] || !strchr(FORMATS[kind], format[0]))
        return -1;
    return 0;
}

/* Whether the memory of two views overlaps. */
static int overlap(const Py_buffer *a, const Py_buffer *b)
{
    const char *const pa = a->buf, *const pb = b->buf;
    return pa < pb + b->len && pb < pa + a->len;
}

/* 0 if every array is of the kind, shape and layout the loop needs and no
 * two float64 arrays overlap; -1 otherwise. */
static int take_arrays(struct loop *s, Py_ssize_t *n)
{
    for (int k = 0; k < N_ARRAYS; k++) {
        const int real = k < N_REAL;
        if (take(s->obj[k], &s->view[k], k == O_ || k == T_ ? 2 : 1, real ? F64 : I64,
                 real ? PyBUF_WRITABLE : 0))
            return -1;
    }
    const Py_ssize_t *const o = s->view[O_].shape, *const t = s->view[T_].shape;
    *n = s->view[LOSSES].shape[0];
    if (o[1] != t[0] || s->view[B_T].shape[0] != t[1] || s->view[PHI].shape[0] != t[1] ||
        s->view[GRAD].shape[0] != t[0] || s->view[INFLUENCER].shape[0] != *n ||
        s->view[CONTEXT].shape[0] != *n)
        return -1;
    for (int a = 0; a < N_REAL; a++)
        for (int b = a + 1; b < N_REAL; b++)
            if (overlap(&s->view[a], &s->view[b]))
                return -1;
    s->o = s->view[O_].buf;
    s->t = s->view[T_].buf;
    s->b_t = s->view[B_T].buf;
    s->phi = s->view[PHI].buf;
    s->grad = s->view[GRAD].buf;
    s->E = (size_t)t[0];
    s->N = (size_t)t[1];
    return 0;
}

/* obj.name, or NULL with no Python error set */
static PyObject *attribute(PyObject *obj, const char *name)
{
    PyObject *value = PyObject_GetAttrString(obj, name);
    if (!value)
        PyErr_Clear();
    return value;
}

/* ws.name = value; -1 with a Python error set, else 0. */
static int set_float(PyObject *ws, const char *name, double value)
{
    PyObject *number = PyFloat_FromDouble(value);
    const int failed = !number || PyObject_SetAttrString(ws, name, number) < 0;
    Py_XDECREF(number);
    return failed ? -1 : 0;
}

/* ws.name as a double into *value; -1 with a Python error set, else 0. */
static int get_float(PyObject *ws, const char *name, double *value)
{
    PyObject *number = PyObject_GetAttrString(ws, name);
    if (!number)
        return -1;
    *value = PyFloat_AsDouble(number);
    Py_DECREF(number);
    return *value == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *run(struct loop *s, PyObject *ws, Py_ssize_t start, Py_ssize_t n)
{
    const int64_t *const influencer = s->view[INFLUENCER].buf, *const context = s->view[CONTEXT].buf;
    double *const losses = s->view[LOSSES].buf;
    const int64_t rows = s->view[O_].shape[0], N = (int64_t)s->N;
    if (start < 0 || start > n) {
        PyErr_SetString(PyExc_ValueError, "start is not an index of the stream");
        return NULL;
    }
    if (get_float(ws, "bound", &s->bound) || get_float(ws, "bias_bound", &s->bias_bound) ||
        set_float(ws, "bound", INFINITY) || set_float(ws, "bias_bound", INFINITY))
        return NULL;
    Py_ssize_t k = start;
    for (; k < n; k++) {
        const int64_t u = influencer[k], y = context[k];
        if (u < 0 || u >= rows || y < 0 || y >= N)
            break;
        if (!step(s, (size_t)u, (size_t)y, &losses[k])) {
            s->bound = s->bias_bound = INFINITY;
            k = ~k;
            break;
        }
    }
    if (set_float(ws, "bound", s->bound) || set_float(ws, "bias_bound", s->bias_bound))
        return NULL;
    return PyLong_FromSsize_t(k);
}

static PyObject *classify_pairs(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, "classify_pairs takes 7 arguments");
    PyObject *const model = args[0], *const ws = args[1];
    struct loop s = {0};
    const Py_ssize_t start = PyLong_AsSsize_t(args[4]);
    if (start == -1 && PyErr_Occurred())
        return NULL;
    s.lr = PyFloat_AsDouble(args[5]);
    if (s.lr == -1.0 && PyErr_Occurred())
        return NULL;
    if (!numpy_own.dgemv)
        return PyErr_Format(PyExc_RuntimeError, "numpy's own functions were not found");
    s.obj[O_] = attribute(model, "O");
    s.obj[T_] = attribute(model, "T");
    s.obj[B_T] = attribute(model, "b_t");
    s.obj[PHI] = attribute(ws, "phi");
    s.obj[GRAD] = attribute(ws, "grad");
    s.obj[LOSSES] = args[6];
    s.obj[INFLUENCER] = args[2];
    s.obj[CONTEXT] = args[3];
    for (int k = LOSSES; k < N_ARRAYS; k++)
        Py_INCREF(s.obj[k]);
    Py_ssize_t n;
    PyObject *result = take_arrays(&s, &n) ? PyLong_FromSsize_t(start) : run(&s, ws, start, n);
    for (int k = 0; k < N_ARRAYS; k++) {
        PyBuffer_Release(&s.view[k]);
        Py_XDECREF(s.obj[k]);
    }
    return result;
}

/* direct_call(k, *arrays) makes call k of (matmul, exp, add.reduce, log)
 * as the loop makes it, on arrays as numpy's function takes them:
 * matmul(x, y, out) of a vector x and a matrix y or of a matrix x and a
 * vector y, exp(x, out), add.reduce(x) and log(x, out). Each is a float64,
 * C-contiguous, aligned array, out is writable, of the result's length and
 * x itself or apart from the inputs, and no dimension is 0. Returns
 * add.reduce's sum as a float, else None, so that each call can be
 * compared with numpy's own. Raises ValueError for arrays it cannot take,
 * RuntimeError if the module's direct is False. */
static PyObject *direct_call(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    static const int ARRAYS[] = {3, 2, 1, 2};
    const long k = nargs ? PyLong_AsLong(args[0]) : -1;
    if (k == -1 && PyErr_Occurred())
        return NULL;
    if (k < 0 || k > 3 || nargs != 1 + ARRAYS[k])
        return PyErr_Format(PyExc_TypeError, "direct_call takes k in 0..3 and that call's arrays");
    if (!numpy_own.dgemv)
        return PyErr_Format(PyExc_RuntimeError, "numpy's own functions were not found");
    const int n = ARRAYS[k], has_out = k != 2;
    Py_buffer view[3] = {{0}};
    int fits = 1;
    for (int a = 0; a < n && fits; a++) {
        const int flags = has_out && a == n - 1 ? PyBUF_WRITABLE : 0;
        if (take(args[1 + a], &view[a], 1, F64, flags)) {
            /* matmul's x or y may be the matrix */
            PyBuffer_Release(&view[a]);
            fits = k == 0 && a < 2 && !take(args[1 + a], &view[a], 2, F64, flags);
        }
    }
    PyObject *result = NULL;
    if (fits) {
        const double *const x = view[0].buf;
        const Py_ssize_t *const xs = view[0].shape, *const ys = view[1].shape;
        for (int a = 0; a < n; a++)
            for (int d = 0; d < view[a].ndim; d++)
                fits &= view[a].shape[d] > 0;
        if (k == 0) {
            const Py_ssize_t len = view[2].shape[0];
            const int vm = view[0].ndim == 1 && view[1].ndim == 2 && xs[0] == ys[0] && len == ys[1];
            const int mv = view[0].ndim == 2 && view[1].ndim == 1 && xs[1] == ys[0] && len == xs[0];
            fits &= (vm || mv) && !overlap(&view[2], &view[0]) && !overlap(&view[2], &view[1]);
            if (fits && vm)
                vector_matrix(x, view[1].buf, view[2].buf, (size_t)ys[0], (size_t)ys[1]);
            else if (fits)
                matrix_vector(x, view[1].buf, view[2].buf, (size_t)xs[0], (size_t)xs[1]);
        } else if (k == 2) {
            result = fits ? PyFloat_FromDouble(add_reduce(x, (size_t)xs[0])) : NULL;
        } else {
            fits &= xs[0] == ys[0] && (x == view[1].buf || !overlap(&view[0], &view[1]));
            if (fits)
                unary(k == 1 ? &numpy_own.exp : &numpy_own.log, x, view[1].buf, (size_t)xs[0]);
        }
    }
    for (int a = 0; a < n; a++)
        PyBuffer_Release(&view[a]);
    if (!fits)
        return PyErr_Format(PyExc_ValueError, "direct_call cannot take these arrays");
    return k == 2 ? result : Py_NewRef(Py_None);
}

/* ---- The cascade scanner ----
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
 * Every log in this form parses alike in the Python parser, which reads
 * every other log: so a give-up costs only the time spent, and every error
 * is the Python parser's. Ids are interned in first-seen order (each
 * line's initiator, then its events) into the caller's id arrays, through
 * an open-addressing hash table that lives only for the call.
 */

/* The distinct ids of the log being scanned: id k is
 * data[offset[k]:offset[k] + length[k]], in the caller's arrays of max
 * entries. slot is the hash table, of 2^(64 - shift) slots, each 1 + an
 * id's index or 0 when free; scan_cascades frees it before it returns. */
struct ids {
    const unsigned char *data;
    int64_t *offset;
    int32_t *length;
    int64_t count, max;
    int32_t *slot;
    int shift;
};

/* The slot of the id start[0:end - start]: its FNV-1a hash, Fibonacci
 * hashed, so the top bits of the product pick the slot. */
static size_t slot_of(const unsigned char *start, const unsigned char *end, int shift)
{
    uint64_t hash = 14695981039346656037ULL;
    for (const unsigned char *p = start; p < end; p++)
        hash = (hash ^ *p) * 1099511628211ULL;
    return (size_t)((hash * 0x9E3779B97F4A7C15ULL) >> shift);
}

/* Rebuilds the slots at twice their number (at 1024 the first time),
 * hashing each id again from its bytes. */
static int grow_slots(struct ids *ids)
{
    const int shift = ids->slot ? ids->shift - 1 : 54;
    const size_t n = (size_t)1 << (64 - shift);
    int32_t *slot = calloc(n, sizeof *slot);
    if (!slot)
        return -1;
    for (int64_t k = 0; k < ids->count; k++) {
        const unsigned char *id = ids->data + ids->offset[k];
        size_t s = slot_of(id, id + ids->length[k], shift);
        while (slot[s])
            s = (s + 1) & (n - 1);
        slot[s] = (int32_t)(k + 1);
    }
    free(ids->slot);
    ids->slot = slot;
    ids->shift = shift;
    return 0;
}

/* The index of the id start[0:end - start], added if new; -1 on failure. */
static int64_t intern(struct ids *ids, const unsigned char *start, const unsigned char *end)
{
    if (!ids->slot || 2 * (ids->count + 1) > ((int64_t)1 << (64 - ids->shift)))
        if (grow_slots(ids))
            return -1;
    const size_t mask = ((size_t)1 << (64 - ids->shift)) - 1;
    const int32_t length = (int32_t)(end - start);
    size_t s = slot_of(start, end, ids->shift);
    for (; ids->slot[s]; s = (s + 1) & mask) {
        const int64_t k = ids->slot[s] - 1;
        if (ids->length[k] == length && memcmp(ids->data + ids->offset[k], start, length) == 0)
            return k;
    }
    if (ids->count == ids->max || ids->count == INT32_MAX - 1)
        return -1;
    const int64_t k = ids->count++;
    ids->offset[k] = start - ids->data;
    ids->length[k] = length;
    ids->slot[s] = (int32_t)(k + 1);
    return k;
}

/* Reads "ID:" at *p and interns the id; -1 if the bytes are not that. */
static int64_t read_id(struct ids *ids, const unsigned char **p, const unsigned char *end)
{
    const unsigned char *start = *p, *q = start;
    while (q < end && *q > 0x20 && *q < 0x7f && *q != ':')
        q++;
    if (q == start || q == end || *q != ':' || q - start > INT32_MAX)
        return -1;
    *p = q + 1;
    return intern(ids, start, q);
}

/* Reads the decimal digits at *p; -1 if there are none or the time is
 * 2^63 or more. */
static int64_t read_time(const unsigned char **p, const unsigned char *end)
{
    const unsigned char *q = *p;
    uint64_t value = 0;
    for (; q < end && *q >= '0' && *q <= '9'; q++) {
        const unsigned digit = *q - '0';
        if (value > ((uint64_t)INT64_MAX - digit) / 10)
            return -1;
        value = value * 10 + digit;
    }
    if (q == *p)
        return -1;
    *p = q;
    return (int64_t)value;
}

/* The arguments of scan_cascades, and the first seven of write_cascades:
 * the text, the arrays of a corpus, and where each id starts in the text. */
enum { TEXT, INITIATOR, START, OFFSETS, NODE_IDX, TIMES, ID_OFFSET, N_WRITE, ID_LENGTH = N_WRITE,
       N_SCAN };
static const enum kind KIND_OF[N_SCAN] = {BYTE, I32, I64, I64, I32, I64, I64, I32};

/* Takes args[k] into view[k] as a one-dimensional array of KIND_OF[k] for
 * each k < n, the text read-only and the rest as flags asks, if the corpus
 * arrays have the lengths of one corpus: an entry of initiator and start
 * per cascade, one more of offsets, and one of node_idx per entry of
 * times. 0, or -1 with no Python error set; the caller releases the views. */
static int take_text(PyObject *const *args, Py_buffer *view, int n, int flags)
{
    for (int k = 0; k < n; k++)
        if (take(args[k], &view[k], 1, KIND_OF[k], k == TEXT ? 0 : flags))
            return -1;
    const Py_ssize_t cascades = view[INITIATOR].shape[0];
    if (view[START].shape[0] != cascades || view[OFFSETS].shape[0] != cascades + 1 ||
        view[NODE_IDX].shape[0] != view[TIMES].shape[0])
        return -1;
    return 0;
}

/* Scans view[TEXT] into the arrays of view, with room for as many
 * cascades and events as they have entries; the number of cascades, or -1. */
static int64_t scan(struct ids *ids, const Py_buffer *view)
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
        if (*p == '\n') {
            p++;
            continue;
        }
        if (*p == '\r') {
            if (p + 1 == end || p[1] != '\n')
                return -1;
            p += 2;
            continue;
        }
        if (*p == '#') {
            for (p++; p < end && *p != '\n'; p++) {
                if (*p == '\r' ? p + 1 == end || p[1] != '\n'
                               : (*p < 0x20 && *p != '\t') || *p > 0x7e)
                    return -1;
            }
            continue;
        }
        const int64_t u = read_id(ids, &p, end);
        const int64_t t0 = u < 0 ? -1 : read_time(&p, end);
        if (t0 < 0 || p == end || *p++ != '\t' || n == max_cascades)
            return -1;
        int other = 0;
        for (;;) {
            const int64_t v = read_id(ids, &p, end);
            const int64_t t = v < 0 ? -1 : read_time(&p, end);
            if (t < t0 || events == max_events)
                return -1;
            node_idx[events] = (int32_t)v;
            times[events++] = t;
            other |= v != u;
            if (p == end)
                break;
            if (*p == ' ') {
                p++;
                continue;
            }
            if (*p == '\r' && p + 1 < end)
                p++;
            if (*p++ != '\n')
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
 * id_offset, id_length) scans the bytes of log into the writable arrays
 * take_text checks, cascade i's events at offsets[i]:offsets[i+1] of
 * node_idx and times, and the distinct ids into id_offset and id_length,
 * as long as each other: id k is log[id_offset[k]:id_offset[k] +
 * id_length[k]]. The arrays' lengths are the room there is.
 *
 * Returns (cascades, ids), or (-1, 0) to give up: the log is not in the
 * strict form, an array is not of its kind or length, or the log needs
 * more room or memory than there is. */
static PyObject *scan_cascades(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != N_SCAN)
        return PyErr_Format(PyExc_TypeError, "scan_cascades takes %d arguments", N_SCAN);
    Py_buffer view[N_SCAN] = {0};
    int64_t n = -1, count = 0;
    if (!take_text(args, view, N_SCAN, PyBUF_WRITABLE) &&
        view[ID_LENGTH].shape[0] == view[ID_OFFSET].shape[0]) {
        struct ids ids = {view[TEXT].buf, view[ID_OFFSET].buf, view[ID_LENGTH].buf, 0,
                          view[ID_OFFSET].shape[0], NULL, 0};
        n = scan(&ids, view);
        free(ids.slot);
        count = n < 0 ? 0 : ids.count;
    }
    for (int k = 0; k < N_SCAN; k++)
        PyBuffer_Release(&view[k]);
    return Py_BuildValue("(LL)", (long long)n, (long long)count);
}

/* ---- The cascade writer ----
 *
 * write_cascades(id_bytes, initiator, start, offsets, node_idx, times,
 * id_bounds) renders a corpus as serialize_cascades does: per cascade,
 * "INITIATOR:START\t" and its events as "ID:TIME" joined by single spaces,
 * then "\n". Id k is id_bytes[id_bounds[k]:id_bounds[k+1]] (its UTF-8);
 * the corpus arrays are those take_text checks, read-only or not.
 *
 * Returns the text as bytes, or None if an array is not of its kind or
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
    if (nargs != N_WRITE)
        return PyErr_Format(PyExc_TypeError, "write_cascades takes %d arguments", N_WRITE);
    Py_buffer view[N_WRITE] = {0};
    const int64_t size = take_text(args, view, N_WRITE, 0) ? -1 : render(view, NULL);
    PyObject *text = size < 0 ? Py_NewRef(Py_None) : PyBytes_FromStringAndSize(NULL, size);
    if (text && size >= 0)
        render(view, PyBytes_AS_STRING(text));
    for (int k = 0; k < N_WRITE; k++)
        PyBuffer_Release(&view[k]);
    return text;
}

/* Sets the module's isa to the fused_t_update copy that runs: "avx512f",
 * "avx2" or "baseline". The resolver picks the first copy CLONES lists
 * that the CPU supports, and this tests the CPU in the same order. Then
 * finds numpy's own functions for the classify loop. */
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
    {"classify_pairs", (PyCFunction)(void (*)(void))classify_pairs, METH_FASTCALL,
     "classify_pairs(model, ws, influencer, context, start, lr, losses)"},
    {"direct_call", (PyCFunction)(void (*)(void))direct_call, METH_FASTCALL,
     "direct_call(k, *arrays)"},
    {"scan_cascades", (PyCFunction)(void (*)(void))scan_cascades, METH_FASTCALL,
     "scan_cascades(log, initiator, start, offsets, node_idx, times, id_offset, id_length)"},
    {"write_cascades", (PyCFunction)(void (*)(void))write_cascades, METH_FASTCALL,
     "write_cascades(id_bytes, initiator, start, offsets, node_idx, times, id_bounds)"},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {{Py_mod_exec, (void *)exec_module}, {0, NULL}};

static struct PyModuleDef module_def = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "iminfector._native_lib",
    .m_doc = "iminfector's native library: the classify epoch loop and the cascade text format.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__native_lib(void)
{
    return PyModuleDef_Init(&module_def);
}
