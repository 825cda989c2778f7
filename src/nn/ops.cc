#include "src/nn/ops.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace dz {

Matrix RmsNormForward(const Matrix& x, const std::vector<float>& gain, float eps,
                      std::vector<float>& inv_rms) {
  const int seq = x.rows();
  const int d = x.cols();
  DZ_CHECK_EQ(static_cast<int>(gain.size()), d);
  inv_rms.assign(static_cast<size_t>(seq), 0.0f);
  Matrix y(seq, d);
  for (int i = 0; i < seq; ++i) {
    const float* xr = x.row(i);
    double ss = 0.0;
    for (int j = 0; j < d; ++j) {
      ss += static_cast<double>(xr[j]) * xr[j];
    }
    const float inv = 1.0f / std::sqrt(static_cast<float>(ss / d) + eps);
    inv_rms[static_cast<size_t>(i)] = inv;
    float* yr = y.row(i);
    for (int j = 0; j < d; ++j) {
      yr[j] = xr[j] * inv * gain[static_cast<size_t>(j)];
    }
  }
  return y;
}

Matrix RmsNormBackward(const Matrix& x, const std::vector<float>& gain,
                       const std::vector<float>& inv_rms, const Matrix& dy,
                       std::vector<float>& dgain) {
  const int seq = x.rows();
  const int d = x.cols();
  DZ_CHECK_EQ(dy.rows(), seq);
  DZ_CHECK_EQ(dy.cols(), d);
  if (dgain.size() != gain.size()) {
    dgain.assign(gain.size(), 0.0f);
  }
  Matrix dx(seq, d);
  for (int i = 0; i < seq; ++i) {
    const float* xr = x.row(i);
    const float* dyr = dy.row(i);
    float* dxr = dx.row(i);
    const float inv = inv_rms[static_cast<size_t>(i)];
    // dgain_j += dy_j * x_j * inv ; dx = inv*(g⊙dy) - x * inv^3/d * sum(g⊙dy⊙x)
    double dot = 0.0;
    for (int j = 0; j < d; ++j) {
      const float gdy = gain[static_cast<size_t>(j)] * dyr[j];
      dot += static_cast<double>(gdy) * xr[j];
      dgain[static_cast<size_t>(j)] += dyr[j] * xr[j] * inv;
    }
    const float coeff = static_cast<float>(dot) * inv * inv * inv / static_cast<float>(d);
    for (int j = 0; j < d; ++j) {
      const float gdy = gain[static_cast<size_t>(j)] * dyr[j];
      dxr[j] = gdy * inv - xr[j] * coeff;
    }
  }
  return dx;
}

namespace {

// Rotates pairs within each head: (a, b) → (a cosθ - b sinθ, a sinθ + b cosθ).
void RopeRotate(Matrix& x, int n_heads, float theta, int pos_offset, float direction) {
  const int seq = x.rows();
  const int d = x.cols();
  DZ_CHECK_EQ(d % n_heads, 0);
  const int hd = d / n_heads;
  DZ_CHECK_EQ(hd % 2, 0);
  // Every head of a position turns by the same angles.
  const size_t half = static_cast<size_t>(hd / 2);
  std::vector<float> cos_p(half);
  std::vector<float> sin_p(half);
  for (int i = 0; i < seq; ++i) {
    float* row = x.row(i);
    const float pos = static_cast<float>(pos_offset + i);
    for (size_t p = 0; p < half; ++p) {
      const float freq =
          std::pow(theta, -2.0f * static_cast<float>(p) / static_cast<float>(hd));
      const float angle = direction * pos * freq;
      cos_p[p] = std::cos(angle);
      sin_p[p] = std::sin(angle);
    }
    for (int h = 0; h < n_heads; ++h) {
      float* head = row + h * hd;
      for (size_t p = 0; p < half; ++p) {
        const float a = head[2 * p];
        const float b = head[2 * p + 1];
        head[2 * p] = a * cos_p[p] - b * sin_p[p];
        head[2 * p + 1] = a * sin_p[p] + b * cos_p[p];
      }
    }
  }
}

}  // namespace

void RopeApply(Matrix& x, int n_heads, float theta, int pos_offset) {
  RopeRotate(x, n_heads, theta, pos_offset, 1.0f);
}

void RopeApplyInverse(Matrix& x, int n_heads, float theta, int pos_offset) {
  RopeRotate(x, n_heads, theta, pos_offset, -1.0f);
}

Matrix AttentionForward(const Matrix& q, const Matrix& k, const Matrix& v, int n_heads,
                        std::vector<Matrix>& probs) {
  const int seq = q.rows();
  const int len = k.rows();
  const int offset = len - seq;
  DZ_CHECK_GE(offset, 0);
  DZ_CHECK_EQ(v.rows(), len);
  const int d = q.cols();
  const int hd = d / n_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  probs.assign(static_cast<size_t>(n_heads), Matrix());
  Matrix out(seq, d);
  for (int h = 0; h < n_heads; ++h) {
    Matrix p(seq, len);
    for (int i = 0; i < seq; ++i) {
      const int last = offset + i;  // the query's own position
      const float* qr = q.row(i) + h * hd;
      float* pr = p.row(i);
      float max_s = -1e30f;
      for (int j = 0; j <= last; ++j) {
        const float* kr = k.row(j) + h * hd;
        float s = 0.0f;
        for (int t = 0; t < hd; ++t) {
          s += qr[t] * kr[t];
        }
        s *= scale;
        pr[j] = s;
        max_s = std::max(max_s, s);
      }
      float denom = 0.0f;
      for (int j = 0; j <= last; ++j) {
        pr[j] = std::exp(pr[j] - max_s);
        denom += pr[j];
      }
      for (int j = 0; j <= last; ++j) {
        pr[j] /= denom;
      }
      // j > last stays zero (causal mask).
      float* orow = out.row(i) + h * hd;
      for (int j = 0; j <= last; ++j) {
        const float* vr = v.row(j) + h * hd;
        const float pj = pr[j];
        for (int t = 0; t < hd; ++t) {
          orow[t] += pj * vr[t];
        }
      }
    }
    probs[static_cast<size_t>(h)] = std::move(p);
  }
  return out;
}

void AttentionBackward(const Matrix& q, const Matrix& k, const Matrix& v, int n_heads,
                       const std::vector<Matrix>& probs, const Matrix& dout, Matrix& dq,
                       Matrix& dk, Matrix& dv) {
  const int seq = q.rows();
  const int d = q.cols();
  const int hd = d / n_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  dq = Matrix(seq, d);
  dk = Matrix(seq, d);
  dv = Matrix(seq, d);
  for (int h = 0; h < n_heads; ++h) {
    const Matrix& p = probs[static_cast<size_t>(h)];
    for (int i = 0; i < seq; ++i) {
      const float* dor = dout.row(i) + h * hd;
      const float* pr = p.row(i);
      // dV[j] += p[i][j] * dout[i];  dP[i][j] = dout[i] · v[j]
      // dS = P ⊙ (dP - sum_j dP*P)   (softmax Jacobian), then dq/dk from S = qk^T*scale.
      float dp_dot = 0.0f;
      std::vector<float> dp(static_cast<size_t>(i) + 1);
      for (int j = 0; j <= i; ++j) {
        const float* vr = v.row(j) + h * hd;
        float acc = 0.0f;
        for (int t = 0; t < hd; ++t) {
          acc += dor[t] * vr[t];
        }
        dp[static_cast<size_t>(j)] = acc;
        dp_dot += acc * pr[j];
        float* dvr = dv.row(j) + h * hd;
        for (int t = 0; t < hd; ++t) {
          dvr[t] += pr[j] * dor[t];
        }
      }
      float* dqr = dq.row(i) + h * hd;
      const float* qr = q.row(i) + h * hd;
      for (int j = 0; j <= i; ++j) {
        const float ds = pr[j] * (dp[static_cast<size_t>(j)] - dp_dot) * scale;
        const float* kr = k.row(j) + h * hd;
        float* dkr = dk.row(j) + h * hd;
        for (int t = 0; t < hd; ++t) {
          dqr[t] += ds * kr[t];
          dkr[t] += ds * qr[t];
        }
      }
    }
  }
}

namespace {

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

Matrix SwiGluForward(const Matrix& gate, const Matrix& up) {
  DZ_CHECK_EQ(gate.rows(), up.rows());
  DZ_CHECK_EQ(gate.cols(), up.cols());
  Matrix h(gate.rows(), gate.cols());
  for (size_t i = 0; i < h.data().size(); ++i) {
    const float g = gate.data()[i];
    h.data()[i] = g * Sigmoid(g) * up.data()[i];
  }
  return h;
}

void SwiGluBackward(const Matrix& gate, const Matrix& up, const Matrix& dh, Matrix& dgate,
                    Matrix& dup) {
  dgate = Matrix(gate.rows(), gate.cols());
  dup = Matrix(up.rows(), up.cols());
  for (size_t i = 0; i < dh.data().size(); ++i) {
    const float g = gate.data()[i];
    const float sg = Sigmoid(g);
    const float silu = g * sg;
    const float dsilu = sg * (1.0f + g * (1.0f - sg));
    dgate.data()[i] = dh.data()[i] * up.data()[i] * dsilu;
    dup.data()[i] = dh.data()[i] * silu;
  }
}

void SoftmaxRows(Matrix& x) {
  for (int i = 0; i < x.rows(); ++i) {
    float* row = x.row(i);
    float max_v = row[0];
    for (int j = 1; j < x.cols(); ++j) {
      max_v = std::max(max_v, row[j]);
    }
    float denom = 0.0f;
    for (int j = 0; j < x.cols(); ++j) {
      row[j] = std::exp(row[j] - max_v);
      denom += row[j];
    }
    for (int j = 0; j < x.cols(); ++j) {
      row[j] /= denom;
    }
  }
}

double CrossEntropy(const Matrix& logits, const std::vector<int>& targets,
                    Matrix& dlogits) {
  DZ_CHECK_EQ(logits.rows(), static_cast<int>(targets.size()));
  Matrix probs = logits;
  SoftmaxRows(probs);
  dlogits = Matrix(logits.rows(), logits.cols());
  int counted = 0;
  for (int i = 0; i < logits.rows(); ++i) {
    if (targets[static_cast<size_t>(i)] >= 0) {
      ++counted;
    }
  }
  if (counted == 0) {
    return 0.0;
  }
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(counted);
  for (int i = 0; i < logits.rows(); ++i) {
    const int t = targets[static_cast<size_t>(i)];
    if (t < 0) {
      continue;  // masked position
    }
    DZ_CHECK_LT(t, logits.cols());
    const float* pr = probs.row(i);
    loss -= std::log(std::max(pr[t], 1e-12f));
    float* dr = dlogits.row(i);
    for (int j = 0; j < logits.cols(); ++j) {
      dr[j] = (pr[j] - (j == t ? 1.0f : 0.0f)) * inv_n;
    }
  }
  return loss / counted;
}

}  // namespace dz
