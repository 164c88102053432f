// Fixture: a column-batched solve loop.
void Update(double* xi, const double* xk, double l, int p) {
  for (int c = 0; c < p; ++c) xi[c] -= l * xk[c];
}
