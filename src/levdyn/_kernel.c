/* Compiled copies of levdyn's scalar hot loops: levdyn_orbit, the orbit
 * iteration of orbits._run with its three escape checks, which also runs
 * lyap._tangent's pass, forming each step's Jacobian as
 * maps.step_jacobian does and running the renormalised tangent step of
 * k vectors (lyap._tangent_steps) in the same loop; levdyn_ticks,
 * micro._ticks's intraday tick pass, which scans the asset weights'
 * drift as it goes; levdyn_boxes, the occupancy grids of
 * attractor.occupied_box_counts; and levdyn_rows, which formats the CSV
 * rows of output._block_texts as output._format_column and
 * output.format_value do.  The orbit step is written once, map_step.
 *
 * In map_step, levdyn_ticks and levdyn_boxes each statement mirrors one
 * Python statement of the reference loop, in the same order.  The drift
 * scan of levdyn_ticks forms, a tick at a time, the elements of the
 * Python loop's numpy drift, with its operations; their maximum is the
 * same in any order.  A tangent step of levdyn_orbit has no one Python
 * loop to mirror: it is orbits._run's step, then maps.step_jacobian's
 * entries of one row at a time, then lyap._tangent_steps's step, each
 * with its Python operations in their order.  The loops use only +, -,
 * *, /, sqrt, fma, fabs and fmod, which IEEE 754 rounds correctly (fabs
 * and fmod are exact), casts that truncate a non-negative double below
 * 2^53 to an integer, which are exact, and log, which is the libm
 * function that Python's math.log calls; built without contraction of
 * multiply-adds (-ffp-contract=off), so that every fma is one the source
 * spells out, they give the doubles the Python loops give.
 * Where a Python loop would divide by zero, the compiled loop returns
 * KERNEL_DEFER, and the caller discards what it wrote and reruns the
 * Python loop, which raises ZeroDivisionError there.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* An x87 build (-m32 or -mfpmath=387) evaluates doubles in 80-bit
 * registers and may round twice, so it could disagree with the Python
 * loops on inputs the loader's probe never tries: fail the build there,
 * and the Python loops run. */
#if FLT_EVAL_METHOD != 0
#error "the compiled loops need FLT_EVAL_METHOD == 0 (no excess precision)"
#endif

/* The row writer scales a double's mantissa exactly in 128 bits: where
 * the compiler has no such integer, fail the build, and the Python loops
 * and formatters run. */
#ifndef __SIZEOF_INT128__
#error "the row writer needs unsigned __int128"
#endif

#define KERNEL_DEFER (-1)
#define KERNEL_LEVERAGE_FLOOR 1
#define KERNEL_AR1_STATIONARITY 2
#define KERNEL_INSOLVENT 1

static double mean_field(int n, const double *lams, const double *pis)
{
    double m = 0.0;
    for (int i = 0; i < n; i++)
        m += pis[i] * lams[i];
    return m;
}

/* One step of orbits._run from the n leverages in lams, whose mean field
 * is *m: writes their successors to next (which may be lams) and their
 * mean field to *m.  Returns 0, a violation code, or KERNEL_DEFER. */
static int map_step(int n, const double *lams, double *next, const double *omegas,
                    const double *pis, double gamma, double lam_max, double coef,
                    double *m)
{
    if (!(*m < lam_max))
        return KERNEL_AR1_STATIONARITY;
    double d = 1.0 + gamma - *m;
    double kernel = coef / (d * d);
    int ok = 1;
    for (int i = 0; i < n; i++) {
        double lam = lams[i];
        double w = omegas[i];
        double lam2 = lam * lam;
        if (lam2 == 0.0)
            return KERNEL_DEFER;
        double g = w / lam2 + (1.0 - w) * kernel;
        if (g <= 0.0)
            return KERNEL_DEFER;
        double new = 1.0 / sqrt(g);
        if (new < 1.0)
            ok = 0;
        next[i] = new;
    }
    if (!ok)
        return KERNEL_LEVERAGE_FLOOR;
    *m = mean_field(n, next, pis);
    if (*m > lam_max)
        return KERNEL_AR1_STATIONARITY;
    return 0;
}

/* orbits._run, and lyap._tangent's pass, on the n leverages in lams
 * (overwritten): transient steps, then steps more, each of which writes
 * its state, a row of n, to recorded unless that is NULL, forms the
 * step's Jacobian row by row as maps.step_jacobian does and runs
 * lyap._tangent_steps's step on the k >= 0 vectors q, rows of n, adding
 * vector v's log growth to totals[v].  out[0] counts the states written.
 * Returns 0 after all steps, the violation code with its step, from 1
 * over the whole run, in out[1], or KERNEL_DEFER, also where a vector is
 * exactly 0: the Python pass replaces it. */
int levdyn_orbit(int n, double *lams, const double *omegas, const double *pis,
                 double gamma, double lam_max, double coef,
                 long long transient, long long steps, double *recorded,
                 int k, double *q, double *totals, long long *out)
{
    double buf[n], row[n], x[k * n + 1];
    double *next = k ? buf : lams;
    double m = mean_field(n, lams, pis);
    out[0] = 0;
    for (long long step = 1; step <= transient + steps; step++) {
        out[1] = step;
        double d = 1.0 + gamma - m;
        int code = map_step(n, lams, next, omegas, pis, gamma, lam_max, coef, &m);
        if (code)
            return code;
        if (recorded && step > transient)
            memcpy(recorded + out[0]++ * n, next, n * sizeof *next);
        if (k && step > transient) {
            double kernel3 = coef / ((d * d) * d);
            for (int i = 0; i < n; i++) {
                double lam = lams[i];
                double w = omegas[i];
                double a = -((1.0 - w) * kernel3);
                double diag = w / ((lam * lam) * lam);
                double cube = (next[i] * next[i]) * next[i];
                for (int j = 0; j < n; j++)
                    row[j] = cube * (i == j ? a * pis[j] + diag : a * pis[j]);
                /* entry i of J u, from column n - 1 down to 0 */
                for (int v = 0; v < k; v++) {
                    const double *u = q + v * n;
                    double xi = row[n - 1] * u[n - 1];
                    for (int j = n - 2; j >= 0; j--)
                        xi = fma(row[j], u[j], xi);
                    x[v * n + i] = xi;
                }
            }
            for (int v = 0; v < k; v++) {
                double *xv = x + v * n;
                /* modified Gram-Schmidt against the new vectors before it */
                for (int w = 0; w < v; w++) {
                    const double *qw = q + w * n;
                    double r = qw[0] * xv[0];
                    for (int j = 1; j < n; j++)
                        r = fma(qw[j], xv[j], r);
                    for (int j = 0; j < n; j++)
                        xv[j] = fma(-r, qw[j], xv[j]);
                }
                double sq = xv[0] * xv[0];
                for (int j = 1; j < n; j++)
                    sq = fma(xv[j], xv[j], sq);
                double norm = sqrt(sq);
                if (norm == 0.0)
                    return KERNEL_DEFER;
                totals[v] += log(norm);
                for (int j = 0; j < n; j++)
                    q[v * n + j] = xv[j] / norm;
            }
        }
        if (next != lams)
            memcpy(lams, next, n * sizeof *lams);
    }
    return 0;
}

/* micro._ticks on n banks over the given shocks, starting from return r
 * and impact coefficient phi.  Updates equities and assets in place and
 * writes each tick's return to returns and, to *drift, the largest
 * |w_i - weights0[i]| over the ticks and banks, where w_i is a tick's
 * asset over their left-to-right sum: NaN once any is NaN, as np.max
 * over the Python loop's weights gives, and 0.0 for no tick.  Returns
 * 0, or KERNEL_INSOLVENT with the tick and the bank in out[0] and
 * out[1], the arrays updated up to that bank. */
int levdyn_ticks(int n, double *equities, double *assets, const double *lambdas,
                 const double *weights0, double r, double phi, double gamma,
                 const double *eps, long long ticks, double *returns,
                 double *drift, long long *out)
{
    double largest = 0.0;
    for (long long s = 0; s < ticks; s++) {
        double demand = 0.0;
        double total = 0.0;
        r = phi * r + eps[s];
        for (int i = 0; i < n; i++) {
            double e = equities[i] + r * assets[i];
            if (!(e > 0.0)) {
                out[0] = s;
                out[1] = i;
                return KERNEL_INSOLVENT;
            }
            equities[i] = e;
            double lam = lambdas[i];
            double a = lam * e;
            assets[i] = a;
            demand += (lam - 1.0) * a;
            total += a;
        }
        double depth = gamma * total;
        if (depth == 0.0)
            return KERNEL_DEFER;
        phi = demand / depth;
        returns[s] = r;
        /* the Python loop's weights: each asset over the row's sum */
        for (int i = 0; i < n; i++) {
            double d = fabs(assets[i] / total - weights0[i]);
            if (d > largest || isnan(d))
                largest = d;
        }
    }
    *drift = largest;
    return 0;
}

/* np.floor_divide(a, b) for a >= 0 and b > 0, as numpy's npy_divmod
 * forms it: the exact remainder, the quotient of what is left, snapped
 * to the nearest integer. */
static double floor_divide(double a, double b)
{
    double mod = fmod(a, b);
    double div = (a - mod) / b;
    double q = (double)(long long)div;
    return div - q > 0.5 ? q + 1.0 : q;
}

/* The occupancy grids of attractor.occupied_box_counts in one pass over
 * n points, rows of 2: each point is normalised, (p - lo) / extent per
 * axis, and its cell at each of the scales, boxes of size eps[s] on a
 * grid of cells[s] per side, is marked in grid s, cells[s]^2 bytes that
 * start right after grid s - 1 in grids.  The cell is
 * attractor._cell_codes's, statement for statement: the rounded
 * quotient's floor, as a truncating cast, exact since the quotient lies
 * in [0, cells[s]] and cells[s] < 2^53; np.floor_divide's where the
 * quotient is near an integer; then the last cell for the upper edge.
 * The points must be finite, within [lo, lo + extent]. */
void levdyn_boxes(long long n, const double *points, const double *lo, const double *extent,
                  int scales, const double *eps, const long long *cells, unsigned char *grids)
{
    unsigned char *grid[scales];
    double tol[scales];
    for (int s = 0; s < scales; s++) {
        grid[s] = s ? grid[s - 1] + cells[s - 1] * cells[s - 1] : grids;
        tol[s] = (double)cells[s] * 0x1p-50;
    }
    for (long long r = 0; r < n; r++) {
        double norm[2];
        for (int a = 0; a < 2; a++)
            norm[a] = (points[2 * r + a] - lo[a]) / extent[a];
        for (int s = 0; s < scales; s++) {
            long long ix[2];
            for (int a = 0; a < 2; a++) {
                double c = norm[a] / eps[s];
                long long q = (long long)c;
                c -= (double)q;
                if (c <= tol[s] || c >= 1.0 - tol[s])
                    q = (long long)floor_divide(norm[a], eps[s]);
                ix[a] = q < cells[s] - 1 ? q : cells[s] - 1;
            }
            grid[s][ix[0] * cells[s] + ix[1]] = 1;
        }
    }
}

/* The CSV writer.  It formats as Python's str and format(x, ".17g") do
 * and, like every loop above, calls no printf-family function: those
 * would follow the locale's LC_NUMERIC. */

__extension__ typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
    1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
    1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
    1000000000000000000ULL, 10000000000000000000ULL,
};

/* m * 10^p for p <= 21: below 2^123 for a 53-bit m */
static u128 times_pow10(uint64_t m, int p)
{
    u128 scaled = (u128)m * POW10[p > 19 ? 19 : p];
    return p > 19 ? scaled * POW10[p - 19] : scaled;
}

/* format(x, ".17g") at out, at most 23 characters: its length, or 0 where
 * x is a normal double outside 2^-14 <= |x| < 2^52.
 *
 * In that range x = m / 2^s with a 53-bit mantissa m and 1 <= s <= 66,
 * and its decimal exponent k, 10^k <= |x| < 10^(k+1), lies in [-5, 15].
 * The 17 significant digits are m * 10^(16-k) / 2^s rounded half to even,
 * the rounding that Python's dtoa applies; the product is exact in 128
 * bits (Steele & White 1990).  Rounding never carries to 10^17: below
 * 10^(k+1), |x| is at least one ulp, over 1.1e-16 |x|, away from it.
 * Python's 'g' layout then writes -4 <= k < 17 in fixed notation and
 * the rest, here only k = -5, with an exponent, dropping trailing zeros
 * and a bare point. */
static int format_double(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t fraction = bits & ((1ULL << 52) - 1);
    char *q = out;
    if (biased == 0x7ff && fraction) {
        memcpy(out, "nan", 3); /* whatever its sign bit */
        return 3;
    }
    if (bits >> 63)
        *q++ = '-';
    if (biased == 0x7ff) {
        memcpy(q, "inf", 3);
        return (int)(q + 3 - out);
    }
    if (biased == 0 && fraction == 0) {
        *q++ = '0';
        return (int)(q - out);
    }
    if (biased < 1023 - 14 || biased >= 1023 + 52)
        return 0;
    uint64_t m = fraction | 1ULL << 52;
    int s = 1023 + 52 - biased;
    /* floor(e log10 2) for 2^e <= |x| < 2^(e+1): k, or one less */
    int k = ((biased - 1023) * 1233) >> 12;
    u128 scaled = times_pow10(m, 16 - k);
    if (scaled >= (u128)POW10[17] << s)
        scaled = times_pow10(m, 16 - ++k);
    uint64_t digits = (uint64_t)(scaled >> s);
    u128 rest = scaled & (((u128)1 << s) - 1);
    u128 half = (u128)1 << (s - 1);
    if (rest > half || (rest == half && (digits & 1)))
        digits++;
    char d[17];
    for (int i = 16; i >= 0; i--) {
        d[i] = (char)('0' + digits % 10);
        digits /= 10;
    }
    int nd = 17;
    while (d[nd - 1] == '0')
        nd--;
    if (k < -4) {
        *q++ = d[0];
        if (nd > 1) {
            *q++ = '.';
            memcpy(q, d + 1, nd - 1);
            q += nd - 1;
        }
        memcpy(q, "e-0", 3);
        q[3] = (char)('0' - k);
        return (int)(q + 4 - out);
    }
    if (k < 0) {
        *q++ = '0';
        *q++ = '.';
        for (int i = -1; i > k; i--)
            *q++ = '0';
        memcpy(q, d, nd);
        return (int)(q + nd - out);
    }
    int whole = k + 1;
    if (nd <= whole) {
        memcpy(q, d, nd);
        memset(q + nd, '0', whole - nd);
        return (int)(q + whole - out);
    }
    memcpy(q, d, whole);
    q[whole] = '.';
    memcpy(q + whole + 1, d + whole, nd - whole);
    return (int)(q + nd + 1 - out);
}

/* str(v) at out, at most 20 characters: its length */
static int format_int(long long v, char *out)
{
    char d[20];
    int n = 0;
    unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
    do {
        d[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    char *q = out;
    if (v < 0)
        *q++ = '-';
    while (n)
        *q++ = d[--n];
    return (int)(q - out);
}

/* Rows first .. first + rows - 1 of ncols columns as output._block_texts
 * writes them: each row is head, the cells joined by commas, then tail.
 * Column j starts at columns[j], steps strides[j] bytes a row and is of
 * kind kinds[j]: 'f' float64, 'i' int64, 'b' bool, or 'U' with chars[j]
 * UCS-4 code points a cell, of which trailing NULs are padding, as numpy
 * takes them.  Writes at most capacity bytes to out and returns their
 * count, or -1, having written part of the rows, at a float outside
 * format_double's range, a code point above 127 or a full buffer. */
long long levdyn_rows(int ncols, const char *kinds, const long long *chars,
                      const char *const *columns, const long long *strides,
                      long long first, long long rows,
                      const char *head, long long head_len,
                      const char *tail, long long tail_len,
                      char *out, long long capacity)
{
    char *q = out;
    const char *end = out + capacity;
    for (long long r = first; r < first + rows; r++) {
        if (head_len > end - q)
            return -1;
        memcpy(q, head, head_len);
        q += head_len;
        for (int j = 0; j < ncols; j++) {
            const char *cell = columns[j] + r * strides[j];
            char text[24];
            int len;
            if (j) {
                if (q == end)
                    return -1;
                *q++ = ',';
            }
            if (kinds[j] == 'U') {
                long long n = chars[j];
                uint32_t code;
                while (n > 0 && (memcpy(&code, cell + 4 * (n - 1), 4), code == 0))
                    n--;
                if (n > end - q)
                    return -1;
                for (long long i = 0; i < n; i++) {
                    memcpy(&code, cell + 4 * i, 4);
                    if (code > 127)
                        return -1;
                    *q++ = (char)code;
                }
                continue;
            }
            if (kinds[j] == 'f') {
                double x;
                memcpy(&x, cell, sizeof x);
                len = format_double(x, text);
                if (len == 0)
                    return -1;
            } else if (kinds[j] == 'i') {
                long long v;
                memcpy(&v, cell, sizeof v);
                len = format_int(v, text);
            } else {
                text[0] = *cell ? '1' : '0';
                len = 1;
            }
            if (len > end - q)
                return -1;
            memcpy(q, text, len);
            q += len;
        }
        if (tail_len > end - q)
            return -1;
        memcpy(q, tail, tail_len);
        q += tail_len;
    }
    return q - out;
}
