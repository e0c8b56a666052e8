/* The package's native library: the classify step's T update, and a
 * scanner and a writer for the cascade text format. _native.py builds it
 * on first use and loads it with ctypes.
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
 * copy.
 *
 * Returns max|O_u[i]|, or NaN if O_u holds a NaN, as numpy's
 * maximum.reduce of |O_u| does. The four arrays must not overlap.
 */
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

static int64_t scan(struct ids *ids, size_t size, int32_t *initiator, int64_t *start,
                    int64_t *offsets, int64_t max_cascades, int32_t *node_idx,
                    int64_t *times, int64_t max_events)
{
    const unsigned char *p = ids->data;
    const unsigned char *const end = p + size;
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

/* Scans log[0:size] into at most max_cascades cascades of at most
 * max_events events in all: initiator and start per cascade, and cascade
 * i's events at offsets[i]:offsets[i+1] of node_idx and times (offsets
 * holds one more entry than the cascades). The distinct ids go into
 * id_offset and id_length, at most max_ids of them, and their number into
 * *n_ids: id k is log[id_offset[k]:id_offset[k] + id_length[k]]. Every id
 * ends in a ':', so the log's count of ':' is room enough.
 *
 * Returns the number of cascades, or -1 to give up: the log is not in the
 * strict form, or it needs more room or memory than there is. */
int64_t scan_cascades(const char *log, size_t size, int32_t *initiator, int64_t *start,
                      int64_t *offsets, int64_t max_cascades, int32_t *node_idx,
                      int64_t *times, int64_t max_events, int64_t *id_offset,
                      int32_t *id_length, int64_t max_ids, int64_t *n_ids)
{
    struct ids ids = {(const unsigned char *)log, id_offset, id_length, 0, max_ids, NULL, 0};
    const int64_t n = scan(&ids, size, initiator, start, offsets, max_cascades, node_idx, times,
                           max_events);
    free(ids.slot);
    *n_ids = ids.count;
    return n;
}

/* ---- The cascade writer ----
 *
 * write_cascades renders a corpus as serialize_cascades does: per
 * cascade, "INITIATOR:START\t" and its events as "ID:TIME" joined by
 * single spaces, then "\n". Id k is id_bytes[id_bounds[k]:id_bounds[k+1]]
 * (its UTF-8); the cascade arrays are laid out as scan_cascades fills
 * them, with n_events events in all.
 *
 * Writes to out if it is not NULL, and returns the number of bytes the
 * text takes, or -1 if an index or an offset is out of range. */

/* Writes value in decimal to out, if not NULL; returns its length. */
static size_t put_int(char *out, int64_t value)
{
    char digits[20];
    size_t n = 0;
    uint64_t u = value < 0 ? -(uint64_t)value : (uint64_t)value;
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    const size_t length = n + (value < 0);
    if (out) {
        if (value < 0)
            *out++ = '-';
        while (n)
            *out++ = digits[--n];
    }
    return length;
}

/* Writes "ID:VALUE" followed by sep to out, if not NULL; returns its length. */
static size_t put_pair(char *out, const char *id_bytes, const int64_t *id_bounds,
                       int64_t k, int64_t value, char sep)
{
    const size_t length = (size_t)(id_bounds[k + 1] - id_bounds[k]);
    if (out) {
        memcpy(out, id_bytes + id_bounds[k], length);
        out[length] = ':';
    }
    const size_t digits = put_int(out ? out + length + 1 : NULL, value);
    if (out)
        out[length + 1 + digits] = sep;
    return length + digits + 2;
}

int64_t write_cascades(const char *id_bytes, const int64_t *id_bounds, int64_t n_ids,
                       const int32_t *initiator, const int64_t *start,
                       const int64_t *offsets, int64_t n_cascades,
                       const int32_t *node_idx, const int64_t *times,
                       int64_t n_events, char *out)
{
    size_t size = 0;
    for (int64_t i = 0; i < n_cascades; i++) {
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
