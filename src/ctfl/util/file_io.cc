#include "ctfl/util/file_io.h"

#include <fstream>

namespace ctfl {

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot size " + path);
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), size)) {
    return Status::IoError("read failed: " + path);
  }
  return bytes;
}

}  // namespace ctfl
