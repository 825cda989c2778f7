// Software IEEE-754 binary16 ("half") conversion.
//
// The serving stack stores base-model weights in fp16 (like the paper's FP16 baseline);
// we implement the conversion in software since this reproduction targets CPUs. Round to
// nearest-even; overflow saturates to +/-inf; subnormals are handled exactly.
#ifndef SRC_TENSOR_HALF_H_
#define SRC_TENSOR_HALF_H_

#include <cstdint>
#include <cstring>

namespace dz {

// Converts a float to the nearest binary16 bit pattern.
uint16_t FloatToHalfBits(float f);

// Converts a binary16 bit pattern to float (exact).
float HalfBitsToFloat(uint16_t h);

// Rounds a float through fp16 precision (the common "store in half" operation).
inline float RoundToHalf(float f) { return HalfBitsToFloat(FloatToHalfBits(f)); }

}  // namespace dz

#endif  // SRC_TENSOR_HALF_H_
