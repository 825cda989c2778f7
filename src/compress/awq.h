// AWQ-style activation-aware weight quantization (baseline from paper Table 1).
//
// Per input channel c, a scale s_c = (mean|X_c|)^α is folded into the weights before
// round-to-nearest group quantization and divided back out afterwards:
//     W̃[:,c] = dequant(quant(W[:,c] · s_c)) / s_c
// Salient (high-activation) channels get finer effective resolution. No sparsity, so
// the compression ratio is lower than ΔCompress (as in the paper).
#ifndef SRC_COMPRESS_AWQ_H_
#define SRC_COMPRESS_AWQ_H_

#include "src/tensor/matrix.h"

namespace dz {

struct AwqConfig {
  int bits = 4;
  int group_size = 64;
};

struct AwqResult {
  Matrix weights;      // effective dense weights after quantize/dequantize
  size_t stored_bytes = 0;  // packed codes + group params + fp16 channel scales
};

AwqResult AwqQuantize(const Matrix& w, const Matrix& x, const AwqConfig& config);

}  // namespace dz

#endif  // SRC_COMPRESS_AWQ_H_
