// Lossless byte codecs for the optional step-4 of the compression pipeline
// (paper Fig. 5). The paper uses nvcomp's GDeflate for GPU-side decompression; we
// implement the same algorithmic family from scratch:
//
//   * LZ77 matching (32 KiB window, min match 4, hash chains searched 32 deep,
//     one-step lazy matching) over the input, producing a literal/match token
//     stream,
//   * a canonical Huffman code over the token alphabet (deflate-style), decoded
//     through a two-level (10-bit first level) lookup table,
//   * a chunk-framed container so large buffers compress and decompress with
//     one independent LZ window per chunk, in parallel across the thread pool,
//   * a byte-oriented RLE codec as a cheap alternative for ablations.
//
// Compress functions return a self-describing buffer; Decompress inverts exactly.
#ifndef SRC_COMPRESS_LOSSLESS_H_
#define SRC_COMPRESS_LOSSLESS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dz {

using ByteBuffer = std::vector<uint8_t>;

// Deflate-family codec (LZ77 + canonical Huffman).
// Inputs above 256 KiB are split into independently compressed chunks (own LZ window
// and code table each) framed in the chunked container, so both directions run
// across the thread pool.
ByteBuffer GdeflateCompress(const ByteBuffer& input);
ByteBuffer GdeflateDecompress(const ByteBuffer& compressed);

namespace internal {

// Retained per-bit canonical-tree decoder (the pre-LUT implementation), kept as
// the bit-exactness reference for tests/tensor/kernel_parity_test.cc. Accepts
// both the legacy single-block format and the chunked container.
ByteBuffer GdeflateDecompressReference(const ByteBuffer& compressed);

}  // namespace internal

// Run-length codec (escape-based).
ByteBuffer RleCompress(const ByteBuffer& input);
ByteBuffer RleDecompress(const ByteBuffer& compressed);

// Convenience: achieved ratio (input / output). Conventions for the degenerate
// cases: 0/0 (nothing in, nothing out) is 0.0, not parity; a non-empty input
// that compresses to zero bytes is +infinity, since any finite value would
// understate the (unbounded) ratio.
double CompressionRatio(size_t input_bytes, size_t output_bytes);

}  // namespace dz

#endif  // SRC_COMPRESS_LOSSLESS_H_
