/* BATAX: generated kernel
 * organism: {_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}};t=4,4
 */
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

void batax(const double *restrict x, double beta, const double *restrict A, double *restrict y, long M, long N) {
    static _Thread_local double *t1_ws;
    static _Thread_local size_t t1_cap;
    if (t1_cap < (size_t)N) {
        free(t1_ws);
        t1_ws = (double *)malloc(sizeof(double) * (size_t)N);
        t1_cap = t1_ws ? (size_t)N : 0;
    }
    double *t1 = t1_ws;
    static _Thread_local double *t1_part_ws;
    static _Thread_local size_t t1_part_cap;
    if (t1_part_cap < (size_t)4 * (size_t)N) {
        free(t1_part_ws);
        t1_part_ws = (double *)malloc(sizeof(double) * (size_t)4 * (size_t)N);
        t1_part_cap = t1_part_ws ? (size_t)4 * (size_t)N : 0;
    }
    double *t1_part = t1_part_ws;
    #pragma omp parallel for num_threads(4) schedule(static)
    for (long p0 = 0; p0 < 4; ++p0) {
        long i_lo = (M * p0) / 4;
        long i_hi = (M * (p0 + 1)) / 4;
        for (long j = 0; j < N; ++j) {
            t1_part[p0 * (N) + j] = 0.0;
        }
        for (long i = i_lo; i + 3 < i_hi; i = i + 4) {
            long i1 = i + 1;
            long i2 = i + 2;
            long i3 = i + 3;
            double t0_s0 = 0.0;
            double t0_s1 = 0.0;
            double t0_s2 = 0.0;
            double t0_s3 = 0.0;
            for (long j = 0; j < N; ++j) {
                t0_s0 += A[i * N + j] * x[j];
                t0_s1 += A[i1 * N + j] * x[j];
                t0_s2 += A[i2 * N + j] * x[j];
                t0_s3 += A[i3 * N + j] * x[j];
            }
            for (long j = 0; j < N; ++j) {
                t1_part[p0 * (N) + j] += A[i * N + j] * t0_s0;
                t1_part[p0 * (N) + j] += A[i1 * N + j] * t0_s1;
                t1_part[p0 * (N) + j] += A[i2 * N + j] * t0_s2;
                t1_part[p0 * (N) + j] += A[i3 * N + j] * t0_s3;
            }
        }
        for (long i = i_hi - (i_hi - i_lo) % 4; i < i_hi; ++i) {
            double t0_s = 0.0;
            for (long j = 0; j < N; ++j) {
                t0_s += A[i * N + j] * x[j];
            }
            for (long j = 0; j < N; ++j) {
                t1_part[p0 * (N) + j] += A[i * N + j] * t0_s;
            }
        }
    }
    for (long j = 0; j < N; ++j) {
        double acc = t1_part[j];
        for (long b = 1; b < 4; ++b) {
            acc += t1_part[b * (N) + j];
        }
        t1[j] = acc;
    }
    #pragma omp parallel for num_threads(4) schedule(static)
    for (long p1 = 0; p1 < 4; ++p1) {
        long j_lo = (N * p1) / 4;
        long j_hi = (N * (p1 + 1)) / 4;
        for (long j = j_lo; j < j_hi; ++j) {
            y[j] = t1[j] * beta;
        }
    }
}

#ifndef MATFUSE_NO_MAIN
static unsigned long long rng_state_ = 88172645463325252ULL;
static double rnd_(void) {
    rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (double)(rng_state_ >> 11) / 9007199254740992.0;
}
static double now_(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}
static void fill_(double *to, size_t count, FILE *source) {
    if (source) {
        if (fread(to, sizeof(double), count, source) != count) exit(2);
        return;
    }
    for (size_t q = 0; q < count; ++q) {
        to[q] = rnd_();
    }
}
int main(int argc, char **argv) {
    long M = argc > 1 ? atol(argv[1]) : 200;
    long N = argc > 2 ? atol(argv[2]) : 200;
    long reps = argc > 3 ? atol(argv[3]) : 5;
    FILE *src = argc > 5 ? fopen(argv[4], "rb") : NULL;
    if (argc > 5 && !src) return 2;
    double *x = (double *)malloc(sizeof(double) * (size_t)N);
    fill_(x, (size_t)N, src);
    double beta;
    fill_(&beta, 1, src);
    double *A = (double *)malloc(sizeof(double) * (size_t)M * (size_t)N);
    fill_(A, (size_t)M * (size_t)N, src);
    double *y = (double *)calloc((size_t)N, sizeof(double));
    if (src) {
        fclose(src);
        double nan_ = strtod("nan", NULL);
        for (size_t q = 0; q < (size_t)N; ++q) {
            y[q] = nan_;
        }
        batax(x, beta, A, y, M, N);
        FILE *dst = fopen(argv[5], "wb");
        if (!dst) return 2;
        fwrite(y, sizeof(double), (size_t)N, dst);
        return fclose(dst) == 0 ? 0 : 2;
    }
    batax(x, beta, A, y, M, N); /* warm-up, untimed */
    double best = 1e300;
    for (long r = 0; r < reps; ++r) {
        double t0 = now_();
        batax(x, beta, A, y, M, N);
        double dt = now_() - t0;
        if (dt < best) best = dt;
    }
    double checksum = 0.0;
    for (size_t q = 0; q < (size_t)N; ++q) {
        checksum += y[q];
    }
    printf("seconds %.9e\nchecksum %.17g\n", best, checksum);
    return 0;
}
#endif /* MATFUSE_NO_MAIN */
