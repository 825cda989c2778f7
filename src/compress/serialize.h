// Binary (de)serialization of compressed-delta artifacts — the persistence layer of
// the paper's Model Manager / delta zoo (Fig. 4). The format is versioned and
// self-describing so artifacts written by one process can be registered by another:
//
//   [magic "DZIP"] [version u32] [config] [n_layers u32]
//   per layer: [name] [kind u8] [rows cols bits] [packed words]
//              [position words, 2:4 layers only] [scales fp16] [zeros]
//   [embedding delta] [lm_head delta] [norm deltas]
//
// It is the artifact's one byte format: what is written, shipped and registered, and
// what the optional lossless pass (CompressedDelta::StoredByteSize) is measured on.
#ifndef SRC_COMPRESS_SERIALIZE_H_
#define SRC_COMPRESS_SERIALIZE_H_

#include <string>

#include "src/compress/delta.h"
#include "src/compress/lossless.h"

namespace dz {

// Encodes the artifact (including structure/metadata) into a self-describing buffer.
ByteBuffer EncodeDelta(const CompressedDelta& delta);

// Decodes a buffer produced by EncodeDelta. Returns false on a wrong magic or
// version, a length field that overruns the buffer, trailing bytes, or a layer
// whose geometry its storage does not fit (see the FromStorage functions).
bool DecodeDelta(const ByteBuffer& buffer, CompressedDelta& out);

// Reads and decodes an artifact file. Returns false on I/O failure or when
// DecodeDelta rejects the bytes.
bool ReadDeltaFile(const std::string& path, CompressedDelta& out);

}  // namespace dz

#endif  // SRC_COMPRESS_SERIALIZE_H_
