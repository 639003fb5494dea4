// expect-lint: fastmath
// A SIMD arm with fma, a pragma that turns it on for what follows, and
// explicit fused calls: each rounds a product and its sum once.
#include <cmath>

__attribute__((target("avx2,fma"))) void Axpy(float* y, const float* x,
                                              float a, int n) {
  for (int i = 0; i < n; ++i) y[i] += a * x[i];
}

#pragma GCC target("fma")

float Fused(float a, float b, float c) { return std::fma(a, b, c); }

double Builtin(double a, double b, double c) {
  return __builtin_fma(a, b, c);
}
