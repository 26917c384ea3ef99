/* BATAX: generated kernel
 * organism: {_i{_j 1}}{_i{_j 2}}{_j 3}
 */
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

void batax(const double *restrict x, double beta, const double *restrict A, double *restrict y, long M, long N) {
    static _Thread_local double *t0_ws;
    static _Thread_local size_t t0_cap;
    if (t0_cap < (size_t)M) {
        free(t0_ws);
        t0_ws = (double *)malloc(sizeof(double) * (size_t)M);
        t0_cap = t0_ws ? (size_t)M : 0;
    }
    double *t0 = t0_ws;
    static _Thread_local double *t1_ws;
    static _Thread_local size_t t1_cap;
    if (t1_cap < (size_t)N) {
        free(t1_ws);
        t1_ws = (double *)malloc(sizeof(double) * (size_t)N);
        t1_cap = t1_ws ? (size_t)N : 0;
    }
    double *t1 = t1_ws;
    for (long i = 0; i < M; i = i + 4) {
        long i1 = i + 1 < M ? i + 1 : M - 1;
        long i2 = i + 2 < M ? i + 2 : M - 1;
        long i3 = i + 3 < M ? i + 3 : M - 1;
        double t0_r0 = 0.0;
        double t0_r1 = 0.0;
        double t0_r2 = 0.0;
        double t0_r3 = 0.0;
        for (long j = 0; j < N; ++j) {
            t0_r0 += A[i * N + j] * x[j];
            t0_r1 += A[i1 * N + j] * x[j];
            t0_r2 += A[i2 * N + j] * x[j];
            t0_r3 += A[i3 * N + j] * x[j];
        }
        t0[i] = t0_r0;
        t0[i1] = t0_r1;
        t0[i2] = t0_r2;
        t0[i3] = t0_r3;
    }
    for (long j = 0; j < N; ++j) {
        t1[j] = 0.0;
    }
    for (long i = 0; i < M; ++i) {
        for (long j = 0; j < N; ++j) {
            t1[j] += A[i * N + j] * t0[i];
        }
    }
    for (long j = 0; j < N; ++j) {
        y[j] = t1[j] * beta;
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
