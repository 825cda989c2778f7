// Test-local artifact writer: the file half of what dzip_cli inspect and
// ReadDeltaFile read back. Shipped code writes artifacts as EncodeDelta bytes.
#ifndef TESTS_COMPRESS_DELTA_FILE_H_
#define TESTS_COMPRESS_DELTA_FILE_H_

#include <cstdio>
#include <string>

#include "src/compress/serialize.h"

namespace dz {

// Writes EncodeDelta(delta) to `path`. Returns false on I/O failure.
inline bool WriteDeltaFile(const std::string& path, const CompressedDelta& delta) {
  const ByteBuffer buffer = EncodeDelta(delta);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(buffer.data(), 1, buffer.size(), f);
  std::fclose(f);
  return written == buffer.size();
}

}  // namespace dz

#endif  // TESTS_COMPRESS_DELTA_FILE_H_
