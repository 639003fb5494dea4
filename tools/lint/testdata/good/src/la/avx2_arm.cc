// A SIMD arm without fma: the word may appear in comments and strings, and
// in a feature name that only contains it.
__attribute__((target("avx2"))) void Axpy(float* y, const float* x, float a,
                                          int n) {
  for (int i = 0; i < n; ++i) y[i] += a * x[i];
}

__attribute__((target("avx512ifma"))) void IntegerOnly() {}

const char* kNote = "no fma in this arm";
