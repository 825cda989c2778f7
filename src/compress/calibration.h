// Calibration-activation capture: runs token sequences through a model and records the
// inputs that reach a given linear layer. ΔCompress and the SparseGPT/AWQ baselines all
// calibrate on these captured activations (paper Alg. 1's X_n).
#ifndef SRC_COMPRESS_CALIBRATION_H_
#define SRC_COMPRESS_CALIBRATION_H_

#include <string>
#include <vector>

#include "src/nn/transformer.h"
#include "src/tensor/matrix.h"

namespace dz {

class ThreadPool;

// Stacks the activation rows observed at `layer_name` across all calibration
// sequences: each sequence runs one Forward, and the layer's input is read from the
// ForwardCache it fills (ForwardCache::LinearInput). The model's own (possibly
// partially reconstructed) weights produce the activations, which is exactly the
// "reconstruct then recompute inputs" discipline of Alg. 1 lines 6–7. Sequences run
// concurrently on `pool` (ThreadPool::Global() when null); the stacked result is in
// calibration order for any thread count.
Matrix CaptureLayerInput(const Transformer& model,
                         const std::vector<std::vector<int>>& calibration,
                         const std::string& layer_name, ThreadPool* pool = nullptr);

}  // namespace dz

#endif  // SRC_COMPRESS_CALIBRATION_H_
