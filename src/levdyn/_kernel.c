/* Compiled copies of levdyn's scalar hot loops: orbits._run, the orbit
 * iteration with its three escape checks, micro._ticks, the intraday
 * tick pass, and lyap._top's fused pass, which advances the orbit, forms
 * each step's Jacobian as maps.step_jacobian does and runs the top
 * exponent's renormalised tangent step (lyap._tangent_steps) in one loop.
 * The orbit step is written once, map_step, which levdyn_run and
 * levdyn_top both call.
 *
 * In levdyn_run and levdyn_ticks each statement mirrors one Python
 * statement of the reference loop, in the same order.  levdyn_top has no
 * one Python loop to mirror: each step is orbits._run's step, then
 * maps.step_jacobian's entries of one row at a time, then
 * lyap._tangent_steps's step, each with its Python operations in their
 * order.  The loops use only +, -, *, /, sqrt and fma, which
 * IEEE 754 rounds correctly, and log, which is the libm function that
 * Python's math.log calls; built without contraction of multiply-adds
 * (-ffp-contract=off), so that every fma is one the source spells out,
 * they give the doubles the Python loops give.
 * Where a Python loop would divide by zero, the compiled loop returns
 * KERNEL_DEFER, and the caller discards what it wrote and reruns the
 * Python loop, which raises ZeroDivisionError there.
 */

#include <float.h>
#include <math.h>

/* An x87 build (-m32 or -mfpmath=387) evaluates doubles in 80-bit
 * registers and may round twice, so it could disagree with the Python
 * loops on inputs the loader's probe never tries: fail the build there,
 * and the Python loops run. */
#if FLT_EVAL_METHOD != 0
#error "the compiled loops need FLT_EVAL_METHOD == 0 (no excess precision)"
#endif

#define KERNEL_DEFER (-1)
#define KERNEL_LEVERAGE_FLOOR 1
#define KERNEL_AR1_STATIONARITY 2
#define KERNEL_INSOLVENT 1
#define KERNEL_VANISHED 3

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
    double sum = 0.0;
    for (int i = 0; i < n; i++)
        sum += pis[i] * next[i];
    *m = sum;
    if (sum > lam_max)
        return KERNEL_AR1_STATIONARITY;
    return 0;
}

static double mean_field(int n, const double *lams, const double *pis)
{
    double m = 0.0;
    for (int i = 0; i < n; i++)
        m += pis[i] * lams[i];
    return m;
}

/* orbits._run on the n leverages in lams (overwritten).  Writes the
 * recorded states, rows of n, to recorded and their count to
 * out[0]; returns 0 for a clean run, else the violation code with its
 * step in out[1]. */
int levdyn_run(int n, double *lams, const double *omegas, const double *pis,
               double gamma, double lam_max, double coef,
               long long transient, long long record,
               double *recorded, long long *out)
{
    long long kept = 0;
    double m = mean_field(n, lams, pis);
    out[0] = 0;
    for (long long step = 1; step <= transient + record; step++) {
        out[1] = step;
        int code = map_step(n, lams, lams, omegas, pis, gamma, lam_max, coef, &m);
        if (code) {
            out[0] = kept;
            return code;
        }
        if (step > transient) {
            for (int i = 0; i < n; i++)
                recorded[kept * n + i] = lams[i];
            kept++;
        }
    }
    out[0] = kept;
    return 0;
}

/* micro._ticks on n banks over the given shocks, starting from return r
 * and impact coefficient phi.  Updates equities and assets in place,
 * writes each tick's return to returns and its asset weights, rows of
 * n, to weights.  Returns 0, or KERNEL_INSOLVENT with the tick and the
 * bank in out[0] and out[1], the arrays updated up to that bank. */
int levdyn_ticks(int n, double *equities, double *assets, const double *lambdas,
                 double r, double phi, double gamma,
                 const double *eps, long long ticks,
                 double *returns, double *weights, long long *out)
{
    for (long long s = 0; s < ticks; s++) {
        double *held = weights + s * n;
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
            held[i] = a;
            demand += (lam - 1.0) * a;
            total += a;
        }
        double depth = gamma * total;
        if (depth == 0.0)
            return KERNEL_DEFER;
        phi = demand / depth;
        returns[s] = r;
        /* the Python loop's weights: each row over its left-to-right sum */
        for (int i = 0; i < n; i++)
            held[i] /= total;
    }
    return 0;
}

/* lyap._top's pass over steps steps of the orbit from the n leverages in
 * lams: each step advances the orbit as levdyn_run does, forms the
 * Jacobian row by row as maps.step_jacobian does, maps the unit vector
 * u (lyap._tangent_steps), adds the log of its norm to *total and
 * renormalises u.  Returns 0 after all steps, KERNEL_DEFER, or with the
 * step, from 0, in out[0]: the violation code, or KERNEL_VANISHED where
 * the vector is exactly 0, adding nothing for it, with lams advanced
 * past that step and u left as it was. */
int levdyn_top(int n, double *lams, const double *omegas, const double *pis,
               double gamma, double lam_max, double coef, long long steps,
               double *u, double *total, long long *out)
{
    double next[n], x[n];
    double m = mean_field(n, lams, pis);
    for (long long step = 0; step < steps; step++) {
        out[0] = step;
        double d = 1.0 + gamma - m;
        int code = map_step(n, lams, next, omegas, pis, gamma, lam_max, coef, &m);
        if (code)
            return code;
        double kernel3 = coef / ((d * d) * d);
        for (int i = 0; i < n; i++) {
            double lam = lams[i];
            double w = omegas[i];
            double a = -((1.0 - w) * kernel3);
            double diag = w / ((lam * lam) * lam);
            double cube = (next[i] * next[i]) * next[i];
            /* row i of J, from column n - 1 down to 0 */
            double e = a * pis[n - 1];
            if (i == n - 1)
                e += diag;
            double xi = (cube * e) * u[n - 1];
            for (int j = n - 2; j >= 0; j--) {
                e = a * pis[j];
                if (i == j)
                    e += diag;
                xi = fma(cube * e, u[j], xi);
            }
            x[i] = xi;
        }
        for (int i = 0; i < n; i++)
            lams[i] = next[i];
        /* _norm */
        double sq = x[0] * x[0];
        for (int j = 1; j < n; j++)
            sq = fma(x[j], x[j], sq);
        double norm = sqrt(sq);
        if (norm == 0.0)
            return KERNEL_VANISHED;
        *total += log(norm);
        for (int i = 0; i < n; i++)
            u[i] = x[i] / norm;
    }
    return 0;
}
