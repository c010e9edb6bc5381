/* Compiled copies of levdyn's two scalar hot loops: orbits._run, the
 * orbit iteration with its three escape checks, and micro._ticks, the
 * intraday tick pass.
 *
 * Each statement mirrors one Python statement of the reference loop, in
 * the same order.  Both loops use only +, -, *, / and sqrt, which IEEE
 * 754 rounds correctly, so built without contraction of multiply-adds
 * (-ffp-contract=off) they give the doubles the Python loops give.
 * Where a Python loop would divide by zero, the compiled loop returns
 * KERNEL_DEFER, and the caller discards what it wrote and reruns the
 * Python loop, which raises ZeroDivisionError there.
 */

#include <math.h>

#define KERNEL_DEFER (-1)
#define KERNEL_LEVERAGE_FLOOR 1
#define KERNEL_AR1_STATIONARITY 2
#define KERNEL_INSOLVENT 1

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
    double m = 0.0;
    int code = 0;
    out[0] = 0;
    for (int i = 0; i < n; i++)
        m += pis[i] * lams[i];
    for (long long step = 1; step <= transient + record; step++) {
        out[1] = step;
        if (!(m < lam_max)) {
            code = KERNEL_AR1_STATIONARITY;
            break;
        }
        double d = 1.0 + gamma - m;
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
            double next = 1.0 / sqrt(g);
            if (next < 1.0)
                ok = 0;
            lams[i] = next;
        }
        if (!ok) {
            code = KERNEL_LEVERAGE_FLOOR;
            break;
        }
        m = 0.0;
        for (int i = 0; i < n; i++)
            m += pis[i] * lams[i];
        if (m > lam_max) {
            code = KERNEL_AR1_STATIONARITY;
            break;
        }
        if (step > transient) {
            for (int i = 0; i < n; i++)
                recorded[kept * n + i] = lams[i];
            kept++;
        }
    }
    out[0] = kept;
    return code;
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
