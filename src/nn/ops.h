// Differentiable primitives for the transformer: RMSNorm, RoPE, causal softmax
// attention, SiLU/SwiGLU, softmax cross-entropy. Each op has a Forward that stores what
// its Backward needs; activations use [seq, dim] row-major matrices.
#ifndef SRC_NN_OPS_H_
#define SRC_NN_OPS_H_

#include <vector>

#include "src/tensor/matrix.h"

namespace dz {

// y = x * g / rms(x), per row. Returns y; saves inverse-rms per row into inv_rms.
Matrix RmsNormForward(const Matrix& x, const std::vector<float>& gain, float eps,
                      std::vector<float>& inv_rms);

// Backprop through RMSNorm. Accumulates gain gradient into dgain.
Matrix RmsNormBackward(const Matrix& x, const std::vector<float>& gain,
                       const std::vector<float>& inv_rms, const Matrix& dy,
                       std::vector<float>& dgain);

// Applies rotary position embeddings in place to a [seq, d_model] matrix interpreted as
// n_heads blocks of head_dim; position of row i is (pos_offset + i).
void RopeApply(Matrix& x, int n_heads, float theta, int pos_offset);

// Inverse rotation (RoPE is orthogonal, so backward = rotate gradients by -angle).
void RopeApplyInverse(Matrix& x, int n_heads, float theta, int pos_offset);

// Causal multi-head attention forward.
//   q: [n, d_model], k, v: [len, d_model] with n <= len (already RoPE'd q/k). The
//   queries are the last n of the len positions: query row i attends to key rows
//   [0, len - n + i]. n == len is a full sequence, n == 1 one decode step over a KV
//   cache.
// Saves per-head softmax probabilities (n_heads matrices of [n, len]) for backward.
Matrix AttentionForward(const Matrix& q, const Matrix& k, const Matrix& v, int n_heads,
                        std::vector<Matrix>& probs);

// Backprop through attention over a full sequence (q, k, v all [seq, d_model], probs
// from AttentionForward on them). Outputs dq, dk, dv.
void AttentionBackward(const Matrix& q, const Matrix& k, const Matrix& v, int n_heads,
                       const std::vector<Matrix>& probs, const Matrix& dout, Matrix& dq,
                       Matrix& dk, Matrix& dv);

// h = silu(gate) * up, elementwise.
Matrix SwiGluForward(const Matrix& gate, const Matrix& up);

// Backprop: given dh, produce dgate and dup.
void SwiGluBackward(const Matrix& gate, const Matrix& up, const Matrix& dh, Matrix& dgate,
                    Matrix& dup);

// Row-wise softmax (in place).
void SoftmaxRows(Matrix& x);

// Mean cross-entropy over rows of logits vs target token ids; also emits dlogits
// (already divided by the number of rows). Rows with target < 0 are ignored.
double CrossEntropy(const Matrix& logits, const std::vector<int>& targets,
                    Matrix& dlogits);

}  // namespace dz

#endif  // SRC_NN_OPS_H_
